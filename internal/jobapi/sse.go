package jobapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"xplace/internal/placer"
)

// Event names of GET /jobs/{id}/events.
const (
	EventProgress = "progress" // one iteration; data is a placer.Snapshot, id its iteration
	EventDone     = "done"     // the job is terminal; data is its final Status
	EventDraining = "draining" // the server is shutting down; reconnect later
)

// WriteProgress writes one progress frame. Its iteration is the SSE id,
// which a reconnecting client hands back as Last-Event-ID.
func WriteProgress(w io.Writer, sn placer.Snapshot) error {
	b, err := json.Marshal(sn)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: progress\ndata: %s\n\n", sn.Iter, b)
	return err
}

// WriteDone writes the terminal frame of a job's stream.
func WriteDone(w io.Writer, st Status) error {
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: done\ndata: %s\n\n", b)
	return err
}

// Event is one parsed frame of a job's event stream.
type Event struct {
	ID   int    // iteration of a progress event; -1 when the frame had no id line
	Name string // EventProgress, EventDone or EventDraining
	Data []byte
}

// EventReader parses the frames the writers above produce.
type EventReader struct{ sc *bufio.Scanner }

// NewEventReader reads a job's event stream from r (a response body).
func NewEventReader(r io.Reader) *EventReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20) // a frame line is a Status or Snapshot: far below 1 MiB
	return &EventReader{sc}
}

// Next returns the next named event, io.EOF when the stream ends.
func (er *EventReader) Next() (Event, error) {
	ev := Event{ID: -1}
	for er.sc.Scan() {
		line := er.sc.Text()
		switch {
		case line == "":
			if ev.Name != "" {
				return ev, nil
			}
			ev = Event{ID: -1}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(line[len("id: "):])
			if err != nil {
				return ev, fmt.Errorf("jobapi: bad event id line %q", line)
			}
			ev.ID = id
		case strings.HasPrefix(line, "event: "):
			ev.Name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.Data = []byte(line[len("data: "):])
		}
	}
	if err := er.sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.EOF
}
