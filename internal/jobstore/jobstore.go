// Package jobstore is the durable side of the placement job runtime: a
// write-ahead log of job lifecycle transitions, atomically written
// mid-trajectory placer checkpoints, and a content-addressed result
// cache. Together they turn the in-memory scheduler of internal/serve
// into a crash-safe service — a restarted scheduler replays the WAL,
// re-enqueues every job that never reached a terminal state, resumes the
// ones with a checkpoint mid-trajectory, and serves repeated identical
// submissions straight from the result cache without touching an engine.
//
// Layout under the store directory:
//
//	wal.jsonl         append-only JSON-line WAL (submit/begin/finish)
//	ckpt/job-<id>.json  newest checkpoint per live job (atomic rename)
//	cache/<sha256>.json one cached result per content key (atomic rename)
//
// WAL records carry the job's durable payload — the tiny, replayable
// spec a synthetic-benchmark job is generated from — not the expanded
// netlist, so the log stays small and the design is re-derived
// deterministically on recovery. A torn final line (the crash landed
// mid-write) is tolerated: replay skips undecodable lines, which can
// only be fragments of the record being appended when the process died —
// every complete record was fsynced before being acknowledged. All WAL
// appends are fsynced; checkpoints and cache entries are fsynced before
// an atomic rename, so those files are always complete, valid JSON.
package jobstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Record is one WAL entry. Type selects which fields are meaningful.
type Record struct {
	Seq  int64     `json:"seq"`
	Type string    `json:"type"` // "submit" | "begin" | "finish"
	Job  int64     `json:"job"`
	Time time.Time `json:"time"`

	// submit fields.
	Label   string          `json:"label,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"` // replayable spec
	Key     string          `json:"key,omitempty"`     // result-cache content key

	// finish fields.
	State      string  `json:"state,omitempty"`
	Err        string  `json:"error,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	HPWL       float64 `json:"hpwl,omitempty"`
	Overflow   float64 `json:"overflow,omitempty"`
	Cached     bool    `json:"cached,omitempty"` // served from the result cache
}

// JobRecord is one job's state folded out of the WAL by Recover.
type JobRecord struct {
	ID      int64
	Label   string
	Payload []byte
	Key     string

	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	// State is the last recorded lifecycle state: "queued" (submit only),
	// "running" (begin without finish), or the terminal state string of
	// the finish record.
	State string
	Err   string

	Iterations int
	HPWL       float64
	Overflow   float64
	Cached     bool

	// HasCheckpoint reports a checkpoint file usable to resume the job
	// mid-trajectory.
	HasCheckpoint bool
}

// Terminal reports whether the recovered state needs no further work.
func (r JobRecord) Terminal() bool {
	switch r.State {
	case "queued", "running":
		return false
	}
	return true
}

// CachedResult is one result-cache entry: the full outcome of a
// succeeded job, keyed by the content address of (design spec, placement
// options). X/Y are the final cell positions of the original design.
type CachedResult struct {
	Key        string    `json:"key"`
	Iterations int       `json:"iterations"`
	HPWL       float64   `json:"hpwl"`
	Overflow   float64   `json:"overflow"`
	X          []float64 `json:"x"`
	Y          []float64 `json:"y"`
}

// Store is a durable job store rooted at one directory. All methods are
// safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	wal     *os.File
	bw      *bufio.Writer
	seq     int64
	keys    map[string]bool // result-cache keys present on disk
	skipped int             // undecodable WAL lines seen by the latest replay
}

// Open creates (or reopens) the store at dir, scanning the existing WAL
// for the next sequence number and the cache directory for known keys.
// An unwritable store directory (wrong permissions, read-only
// filesystem) fails HERE with one clear error instead of surfacing on
// the first WAL append or checkpoint write minutes into a run.
func Open(dir string) (*Store, error) {
	dirs := []string{dir, filepath.Join(dir, "ckpt"), filepath.Join(dir, "cache")}
	for _, d := range dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("jobstore: store directory %s is not usable: %w", dir, err)
		}
	}
	// Writability probe: MkdirAll succeeds on directories that already
	// exist even when they cannot be written (and an O_APPEND handle on an
	// existing WAL keeps working in a directory that rejects new files),
	// so every directory the store creates files in is probed explicitly.
	for _, d := range dirs {
		probe, err := os.CreateTemp(d, ".probe-*")
		if err != nil {
			return nil, fmt.Errorf("jobstore: store directory %s is not writable: %w", d, err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	s := &Store{dir: dir, keys: make(map[string]bool)}
	recs, skipped, err := s.readWAL()
	if err != nil {
		return nil, err
	}
	s.skipped = skipped
	for _, r := range recs {
		if r.Seq > s.seq {
			s.seq = r.Seq
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		var cr CachedResult
		b, err := os.ReadFile(filepath.Join(dir, "cache", e.Name()))
		if err != nil || json.Unmarshal(b, &cr) != nil || cr.Key == "" {
			continue // unreadable entry: treat as a cache miss, never an error
		}
		s.keys[cr.Key] = true
	}
	f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	// A crash mid-append can leave the file without a trailing newline;
	// terminate that torn line so the next record starts fresh instead of
	// gluing onto the fragment.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("jobstore: %w", err)
			}
		}
	}
	s.wal = f
	s.bw = bufio.NewWriter(f)
	return s, nil
}

// Close flushes and closes the WAL. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.bw.Flush()
	if e := s.wal.Sync(); err == nil {
		err = e
	}
	if e := s.wal.Close(); err == nil {
		err = e
	}
	s.wal = nil
	return err
}

func (s *Store) walPath() string { return filepath.Join(s.dir, "wal.jsonl") }

func (s *Store) ckptPath(job int64) string {
	return filepath.Join(s.dir, "ckpt", fmt.Sprintf("job-%d.json", job))
}

func (s *Store) cachePath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, "cache", hex.EncodeToString(sum[:])+".json")
}

// maxWALLine bounds a single WAL record on disk. A line beyond it cannot
// be a record this package wrote and is treated as corruption.
const maxWALLine = 1 << 26

// readWAL decodes every complete record, skipping — and counting —
// undecodable lines. A bad line is either the torn tail of a crashed
// append (Open terminates such a tail with a newline, so after a reopen
// it shows up as an undecodable line) or genuine mid-file corruption
// (bit rot, a hostile edit). Either way the skip is per-line and
// deterministic: the same bytes always yield the same surviving record
// sequence, and the records AFTER a bad line are still replayed — an
// over-long garbage line is drained to its newline rather than aborting
// the scan and silently truncating every good record behind it.
func (s *Store) readWAL() ([]Record, int, error) {
	f, err := os.Open(s.walPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("jobstore: %w", err)
	}
	defer f.Close()
	var (
		recs    []Record
		skipped int
		line    []byte
		discard bool // inside an over-long line: drop bytes until its newline
	)
	decode := func(b []byte) {
		b = bytes.TrimSpace(b)
		if len(b) == 0 {
			return
		}
		var r Record
		if err := json.Unmarshal(b, &r); err != nil {
			// Every complete record was fsynced before being acknowledged,
			// so skipping an undecodable line loses nothing that was
			// promised. The count is surfaced via SkippedRecords so a
			// corrupted log is visible, not silent.
			skipped++
			return
		}
		recs = append(recs, r)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	for {
		chunk, err := br.ReadSlice('\n')
		if !discard {
			line = append(line, chunk...)
			if len(line) > maxWALLine {
				line = nil
				discard = true
				skipped++
			}
		}
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
			continue // keep accumulating (or draining) this line
		case err == nil:
			if !discard {
				decode(line)
				line = line[:0]
			}
			discard = false
			continue
		case errors.Is(err, io.EOF):
			if !discard {
				decode(line) // final line without a trailing newline
			}
			return recs, skipped, nil
		default:
			return nil, skipped, fmt.Errorf("jobstore: reading WAL: %w", err)
		}
	}
}

// SkippedRecords reports how many undecodable WAL lines the most recent
// replay (Open, Recover or Compact) skipped. Zero on a healthy log; at
// most one after a clean crash (the torn tail); more indicates mid-file
// corruption worth alerting on.
func (s *Store) SkippedRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// append writes one record and fsyncs the WAL — the record is durable
// when append returns.
func (s *Store) append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return errors.New("jobstore: store is closed")
	}
	s.seq++
	r.Seq = s.seq
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := s.bw.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// AppendSubmit records a job's acceptance along with its replayable
// payload and result-cache key. The payload must be valid JSON (it is
// embedded raw in the WAL line); an invalid payload fails the append.
func (s *Store) AppendSubmit(job int64, label string, payload []byte, key string) error {
	return s.append(Record{
		Type: "submit", Job: job, Time: time.Now(),
		Label: label, Payload: payload, Key: key,
	})
}

// AppendBegin records that a worker started running the job.
func (s *Store) AppendBegin(job int64) error {
	return s.append(Record{Type: "begin", Job: job, Time: time.Now()})
}

// AppendFinish records the job's terminal transition.
func (s *Store) AppendFinish(job int64, state, errMsg string, iters int, hpwl, overflow float64, cached bool) error {
	return s.append(Record{
		Type: "finish", Job: job, Time: time.Now(),
		State: state, Err: errMsg,
		Iterations: iters, HPWL: hpwl, Overflow: overflow, Cached: cached,
	})
}

// foldRecords collapses raw WAL records into per-job state, returning
// the jobs in ascending-id order (ids are assigned in submission order).
func foldRecords(recs []Record) []JobRecord {
	jobs := make(map[int64]*JobRecord)
	var order []int64
	for _, r := range recs {
		j := jobs[r.Job]
		if j == nil {
			if r.Type != "submit" {
				continue // begin/finish for a job whose submit was torn off
			}
			j = &JobRecord{ID: r.Job}
			jobs[r.Job] = j
			order = append(order, r.Job)
		}
		switch r.Type {
		case "submit":
			j.Label = r.Label
			j.Payload = append([]byte(nil), r.Payload...)
			j.Key = r.Key
			j.Submitted = r.Time
			j.State = "queued"
		case "begin":
			j.Started = r.Time
			j.State = "running"
		case "finish":
			j.Finished = r.Time
			j.State = r.State
			j.Err = r.Err
			j.Iterations = r.Iterations
			j.HPWL = r.HPWL
			j.Overflow = r.Overflow
			j.Cached = r.Cached
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	out := make([]JobRecord, 0, len(order))
	for _, id := range order {
		out = append(out, *jobs[id])
	}
	return out
}

// Recover folds the WAL into per-job records, newest-submission-last.
// Jobs whose last record is not a finish are the crashed scheduler's
// queued and running jobs — the caller re-enqueues them (resuming from
// the checkpoint when HasCheckpoint is set).
func (s *Store) Recover() ([]JobRecord, error) {
	recs, skipped, err := s.readWAL()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.skipped = skipped
	s.mu.Unlock()
	out := foldRecords(recs)
	for i := range out {
		if !out[i].Terminal() {
			if _, err := os.Stat(s.ckptPath(out[i].ID)); err == nil {
				out[i].HasCheckpoint = true
			}
		}
	}
	return out, nil
}

// Compact rewrites the WAL as a snapshot of its folded per-job state —
// one submit (plus begin/finish where recorded) per job — and truncates
// the historical record stream ("snapshot and truncate"). A long-lived
// node calls this after a successful startup recovery so the log it
// replays stays proportional to the number of jobs it has ever seen,
// not the number of lifecycle transitions; corrupt lines are dropped
// for good. The swap is atomic (temp + fsync + rename) and the append
// handle is reopened on the new file, so a crash at any point leaves
// either the old or the new WAL intact — never a partial one. Returns
// how many raw records the snapshot folded away.
func (s *Store) Compact() (dropped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0, errors.New("jobstore: store is closed")
	}
	if err := s.bw.Flush(); err != nil {
		return 0, fmt.Errorf("jobstore: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return 0, fmt.Errorf("jobstore: %w", err)
	}
	recs, skipped, err := s.readWAL()
	if err != nil {
		return 0, err
	}
	var (
		buf bytes.Buffer
		seq int64
	)
	write := func(r Record) error {
		seq++
		r.Seq = seq
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("jobstore: %w", err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
		return nil
	}
	for _, j := range foldRecords(recs) {
		if err := write(Record{
			Type: "submit", Job: j.ID, Time: j.Submitted,
			Label: j.Label, Payload: j.Payload, Key: j.Key,
		}); err != nil {
			return 0, err
		}
		if !j.Started.IsZero() {
			if err := write(Record{Type: "begin", Job: j.ID, Time: j.Started}); err != nil {
				return 0, err
			}
		}
		if j.Terminal() {
			if err := write(Record{
				Type: "finish", Job: j.ID, Time: j.Finished,
				State: j.State, Err: j.Err,
				Iterations: j.Iterations, HPWL: j.HPWL, Overflow: j.Overflow,
				Cached: j.Cached,
			}); err != nil {
				return 0, err
			}
		}
	}
	// Close the live handle BEFORE the rename: an append racing the swap
	// would otherwise land on the unlinked old inode and silently vanish.
	// (Appends are excluded by s.mu; this guards the handle itself.)
	if err := s.wal.Close(); err != nil {
		return 0, fmt.Errorf("jobstore: %w", err)
	}
	s.wal, s.bw = nil, nil
	reopen := func() error {
		f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("jobstore: reopening WAL after compaction: %w", err)
		}
		s.wal = f
		s.bw = bufio.NewWriter(f)
		return nil
	}
	if err := writeAtomic(s.walPath(), buf.Bytes()); err != nil {
		// The old WAL is still in place; reopen it and keep appending.
		if rerr := reopen(); rerr != nil {
			return 0, rerr
		}
		return 0, err
	}
	if err := reopen(); err != nil {
		return 0, err
	}
	dropped = len(recs) + skipped - int(seq)
	s.seq = seq
	s.skipped = 0
	return dropped, nil
}

// writeAtomic writes data to path via a temp file + fsync + rename, so a
// crash never leaves a partial file under the final name.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// WriteCheckpoint durably replaces the job's resume point.
func (s *Store) WriteCheckpoint(job int64, data []byte) error {
	return writeAtomic(s.ckptPath(job), data)
}

// LoadCheckpoint returns the job's newest checkpoint, or ok=false when
// none exists (or it is unreadable — the job then restarts from scratch).
func (s *Store) LoadCheckpoint(job int64) (data []byte, ok bool) {
	b, err := os.ReadFile(s.ckptPath(job))
	if err != nil {
		return nil, false
	}
	return b, true
}

// RemoveCheckpoint deletes the job's resume point (call on terminal
// transition — a finished job must not resume).
func (s *Store) RemoveCheckpoint(job int64) {
	_ = os.Remove(s.ckptPath(job))
}

// PutResult durably caches a succeeded job's result under its content
// key.
func (s *Store) PutResult(r *CachedResult) error {
	if r.Key == "" {
		return errors.New("jobstore: cached result needs a key")
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := writeAtomic(s.cachePath(r.Key), b); err != nil {
		return err
	}
	s.mu.Lock()
	s.keys[r.Key] = true
	s.mu.Unlock()
	return nil
}

// GetResult looks a result up by content key. A disk-level decode
// problem reads as a miss, never an error: the cache is an optimization.
func (s *Store) GetResult(key string) (*CachedResult, bool) {
	if key == "" {
		return nil, false
	}
	s.mu.Lock()
	known := s.keys[key]
	s.mu.Unlock()
	if !known {
		return nil, false
	}
	b, err := os.ReadFile(s.cachePath(key))
	if err != nil {
		return nil, false
	}
	var cr CachedResult
	if err := json.Unmarshal(b, &cr); err != nil || cr.Key != key {
		return nil, false
	}
	return &cr, true
}

// CacheLen returns the number of cached results.
func (s *Store) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}
