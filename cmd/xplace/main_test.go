package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"xplace"
)

// bin is the xplace binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "xplace-cli-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "xplace-under-test")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building xplace: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary on a tiny benchmark with extra flags and returns
// stdout, stderr and the exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	base := []string{"-bench", "adaptec1", "-scale", "0.002", "-workers", "1", "-max-iter", "30"}
	cmd := exec.Command(bin, append(base, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatalf("running xplace: %v", err)
	return "", "", 0
}

// TestStrategyFlagUnknown: an unknown -strategy is a usage error (exit 2)
// carrying ParseStrategy's message.
func TestStrategyFlagUnknown(t *testing.T) {
	_, want := xplace.ParseStrategy("bogus")
	if want == nil {
		t.Fatal("ParseStrategy accepted bogus")
	}
	_, stderr, code := run(t, "-strategy", "bogus")
	if code != 2 || stderr != "xplace: "+want.Error()+"\n" {
		t.Errorf("exit %d, stderr %q; want exit 2 with %q", code, stderr, want)
	}
}

// TestModelFlagMissingFile: a -model path that does not exist fails before
// placement (exit 1) with an error naming the path.
func TestModelFlagMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing.xfnm")
	stdout, stderr, code := run(t, "-model", path)
	if code != 1 || !strings.Contains(stderr, path) {
		t.Errorf("exit %d, stderr %q; want exit 1 naming %s", code, stderr, path)
	}
	if strings.Contains(stdout, "GP:") {
		t.Error("placement ran despite the missing model")
	}
}

// TestNNModeRequiresModel: -mode xplace-nn without -model is a usage error.
func TestNNModeRequiresModel(t *testing.T) {
	_, stderr, code := run(t, "-mode", "xplace-nn")
	if code != 2 || !strings.Contains(stderr, "requires -model") {
		t.Errorf("exit %d, stderr %q; want exit 2 asking for -model", code, stderr)
	}
}

// TestModelFlagChangesGP: a model loaded by -model is blended into global
// placement — the per-iteration HPWL trace differs from the no-model run
// of the same design and seed.
func TestModelFlagChangesGP(t *testing.T) {
	m := xplace.NewModel(xplace.ModelConfig{Width: 4, Modes: 3, Layers: 1, Seed: 1})
	m.Train(xplace.GenerateTrainingSamples(4, 16, 16, 1), xplace.TrainOptions{Epochs: 2, LR: 1e-3, Seed: 1})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.xfnm")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// hpwlTrace is the hpwl column of the -csv dump.
	hpwlTrace := func(args ...string) []string {
		t.Helper()
		stdout, stderr, code := run(t, append(args, "-csv")...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		var trace []string
		for _, line := range strings.Split(stdout, "\n") {
			if f := strings.Split(line, ","); len(f) == 11 && f[0] != "iter" {
				trace = append(trace, f[1])
			}
		}
		if len(trace) == 0 {
			t.Fatalf("%v: no CSV rows in output:\n%s", args, stdout)
		}
		return trace
	}
	plain := hpwlTrace()
	blended := hpwlTrace("-mode", "xplace-nn", "-model", path)
	if strings.Join(plain, ",") == strings.Join(blended, ",") {
		t.Error("-model had no effect: HPWL trace identical to the numerical run")
	}
}
