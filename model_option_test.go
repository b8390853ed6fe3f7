package xplace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func savedTinyModel(t *testing.T) []byte {
	t.Helper()
	m := NewModel(ModelConfig{Width: 4, Modes: 3, Layers: 1, Seed: 1})
	m.Train(GenerateTrainingSamples(4, 16, 16, 1), TrainOptions{Epochs: 2, LR: 1e-3, Seed: 1})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionWithFieldModel: a model artifact loaded from disk and set as
// the run's Predictor drives the NN-blended flow on a Session — the result
// differs from the pure numerical run of the same design and seed.
func TestSessionWithFieldModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fno.xfnm")
	if err := os.WriteFile(path, savedTinyModel(t), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	d := sessionTestDesign(t, 150, 1)

	s := NewSession(WithEngineOptions(1, 0), WithBackend(Float64Backend()))
	defer s.Close()
	opts := sessionTestOpts(40)
	opts.Predictor = NewFieldPredictor(m)
	blended, err := s.Place(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Place(context.Background(), d, sessionTestOpts(40))
	if err != nil {
		t.Fatal(err)
	}
	if blended.HPWL == ref.HPWL {
		t.Error("field model had no effect: blended HPWL identical to numerical")
	}
}

// TestLoadModelTypedErrors: every way an artifact's bytes can be bad —
// foreign, future version, bit flip, truncation — is a typed error at load
// time, never a mid-placement failure. (A missing file
// is the CLI's case: cmd/xplace TestModelFlagMissingFile.)
func TestLoadModelTypedErrors(t *testing.T) {
	raw := savedTinyModel(t)

	if _, err := LoadModel(bytes.NewReader([]byte("not a model at all"))); !errors.Is(err, ErrModelNotArtifact) {
		t.Errorf("foreign bytes: got %v, want ErrModelNotArtifact", err)
	}

	future := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(future[4:8], 99) // schema version after the magic
	if _, err := LoadModel(bytes.NewReader(future)); !errors.Is(err, ErrModelVersion) {
		t.Errorf("future version: got %v, want ErrModelVersion", err)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-10] ^= 0x20
	if _, err := LoadModel(bytes.NewReader(flipped)); !errors.Is(err, ErrModelCorrupt) {
		t.Errorf("bit flip: got %v, want ErrModelCorrupt", err)
	}

	if _, err := LoadModel(bytes.NewReader(raw[:len(raw)/2])); !errors.Is(err, ErrModelCorrupt) {
		t.Errorf("truncation: got %v, want ErrModelCorrupt", err)
	}
}

// TestStatModelFacade: StatModel reads the artifact header without
// decoding weights, and its sha256 matches what a full load verifies.
func TestStatModelFacade(t *testing.T) {
	raw := savedTinyModel(t)
	hdr, err := StatModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Config.Width != 4 || hdr.TrainRes != 16 || hdr.ParamCount == 0 || len(hdr.SHA256) != 64 {
		t.Fatalf("header %+v, want width 4, train_res 16, nonzero params, 64-hex sha", hdr)
	}
	if _, err := LoadModel(bytes.NewReader(raw)); err != nil {
		t.Fatalf("artifact that Stats clean fails to load: %v", err)
	}
}
