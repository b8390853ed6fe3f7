package jobapi

import (
	"bytes"
	"io"
	"testing"

	"xplace/internal/placer"
	"xplace/internal/serve"
)

// TestEventFramesRoundTrip pins the frames byte for byte and reads them
// back with the one reader.
func TestEventFramesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProgress(&buf, placer.Snapshot{Iter: 7}); err != nil {
		t.Fatal(err)
	}
	frame := buf.String()
	if want := "id: 7\nevent: progress\ndata: {"; frame[:len(want)] != want || frame[len(frame)-3:] != "}\n\n" {
		t.Fatalf("progress frame = %q", frame)
	}
	if err := WriteDone(&buf, Status{ID: 3, State: serve.Succeeded}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(": a comment frame names no event\n\nevent: draining\ndata: {}\n\nevent: progress\ndata: {\"trunc")

	r := NewEventReader(&buf)
	for _, want := range []Event{{ID: 7, Name: EventProgress}, {ID: -1, Name: EventDone}, {ID: -1, Name: EventDraining}} {
		got, err := r.Next()
		if err != nil || got.ID != want.ID || got.Name != want.Name || len(got.Data) == 0 {
			t.Fatalf("Next = %+v, %v; want %+v", got, err, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("a truncated trailing frame must read as EOF, got %v", err)
	}
	if _, err := NewEventReader(bytes.NewBufferString("id: x\n")).Next(); err == nil || err == io.EOF {
		t.Fatalf("bad id line: err = %v", err)
	}
}
