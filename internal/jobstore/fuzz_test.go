package jobstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// seededWAL writes a seeded interleaving of submit/begin/finish records
// through a real store and returns the WAL's bytes and its records.
func seededWAL(f *testing.F) ([]byte, []Record) {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var submitted, running []int64
	states := []string{"succeeded", "failed", "canceled", "timed-out"}
	for next := int64(1); next <= 6 || len(submitted)+len(running) > 0; {
		switch k := rng.Intn(3); {
		case k == 0 && next <= 6:
			payload := fmt.Sprintf(`{"bench":"fft_1","seed":%d}`, next)
			if err := s.AppendSubmit(next, fmt.Sprintf("job-%d", next), []byte(payload), fmt.Sprintf("key-%d", next)); err != nil {
				f.Fatal(err)
			}
			submitted = append(submitted, next)
			next++
		case k == 1 && len(submitted) > 0:
			id := submitted[0]
			submitted = submitted[1:]
			if err := s.AppendBegin(id); err != nil {
				f.Fatal(err)
			}
			running = append(running, id)
		case k == 2 && len(running) > 0:
			i := rng.Intn(len(running))
			id := running[i]
			running = append(running[:i], running[i+1:]...)
			st := states[rng.Intn(len(states))]
			if err := s.AppendFinish(id, st, "", 10+rng.Intn(90), 1e3*rng.Float64(), rng.Float64(), rng.Intn(2) == 0); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	recs, skipped := decodeLines(b)
	if skipped != 0 {
		f.Fatalf("seeded WAL has %d undecodable lines", skipped)
	}
	return b, recs
}

// decodeLines is the replay oracle: every non-blank line decodes on its
// own into a record or counts as skipped.
func decodeLines(b []byte) (recs []Record, skipped int) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		var r Record
		if json.Unmarshal(line, &r) != nil {
			skipped++
			continue
		}
		recs = append(recs, r)
	}
	return recs, skipped
}

// FuzzWALReplay: a WAL cut at any byte offset, with or without one byte
// flipped, opens and recovers without error or panic. A cut alone
// recovers the fold of a prefix of the records that holds at least every
// complete line; in every case the result is the fold of the lines that
// still decode, one line at a time, and the rest are counted by
// SkippedRecords.
func FuzzWALReplay(f *testing.F) {
	ref, full := seededWAL(f)
	n := uint32(len(ref))
	f.Add(n, uint32(0), byte(0))                                 // intact
	f.Add(n/2, uint32(0), byte(0))                               // torn mid-log
	f.Add(n-1, uint32(0), byte(0))                               // only the last newline lost
	f.Add(n, n/3, byte(0x20))                                    // one flipped byte
	f.Add(n, uint32(bytes.IndexByte(ref, '\n')), byte('\n'^'x')) // two lines glued
	f.Fuzz(func(t *testing.T, cut, at uint32, mask byte) {
		b := append([]byte(nil), ref[:min(int(cut), len(ref))]...)
		if mask != 0 && len(b) > 0 {
			b[int(at%uint32(len(b)))] ^= mask
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		got, err := s.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		recs, skipped := decodeLines(b)
		if mask == 0 {
			k := len(recs)
			if complete := bytes.Count(b, []byte("\n")); k < complete || k > complete+1 {
				t.Fatalf("cut after %d complete lines recovered %d records", complete, k)
			}
			if want := foldRecords(full[:k]); !sameJSON(got, want) {
				t.Fatalf("cut WAL recovered\n%s\nwant the fold of its first %d records\n%s", jsonOf(got), k, jsonOf(want))
			}
		}
		if want := foldRecords(recs); !sameJSON(got, want) {
			t.Fatalf("recovered\n%s\nwant the fold of the decodable lines\n%s", jsonOf(got), jsonOf(want))
		}
		if s.SkippedRecords() != skipped {
			t.Fatalf("SkippedRecords = %d, want %d", s.SkippedRecords(), skipped)
		}
	})
}

// jsonOf and sameJSON compare job records by their encoding, which
// compares times by instant rather than by location pointer.
func jsonOf(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func sameJSON(a, b any) bool { return bytes.Equal(jsonOf(a), jsonOf(b)) }
