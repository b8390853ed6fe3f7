package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"xplace/internal/nn"
	"xplace/internal/obs"
)

// UnknownModelError is returned by Submit (and by a recovered job's run)
// when a request names a field model the registry does not hold. The
// daemon maps it to HTTP 400 — the request can never succeed on this
// node as-is.
type UnknownModelError struct {
	Name  string
	Known []string
}

func (e *UnknownModelError) Error() string {
	if len(e.Known) == 0 {
		return fmt.Sprintf("serve: unknown model %q (no models loaded)", e.Name)
	}
	return fmt.Sprintf("serve: unknown model %q (loaded: %s)", e.Name, strings.Join(e.Known, ", "))
}

// ModelRegistry holds the named field models a scheduler can attach to
// jobs. Models are loaded once (at daemon startup, from the -models dir)
// and shared by every job that names them: a loaded model is read-only and
// each inference runs in a workspace checked out of the entry's
// nn.Predictor, so jobs naming one model predict concurrently.
// acquire/release refcounts track how many running jobs hold each model.
type ModelRegistry struct {
	mu     sync.Mutex
	models map[string]*modelEntry
}

type modelEntry struct {
	pred nn.Predictor // shared by every job on the model
	refs int64        // guarded by ModelRegistry.mu
}

// NewModelRegistry returns an empty registry.
func NewModelRegistry() *ModelRegistry {
	return &ModelRegistry{models: map[string]*modelEntry{}}
}

// Load reads one model artifact from r and registers it under name.
// Loading a name twice is an error — models are immutable for the
// registry's lifetime so jobs never observe a swap mid-run.
func (g *ModelRegistry) Load(name string, r io.Reader) error {
	m, err := nn.Load(r)
	if err != nil {
		return fmt.Errorf("model %q: %w", name, err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.models[name]; dup {
		return fmt.Errorf("model %q: already loaded", name)
	}
	g.models[name] = &modelEntry{pred: nn.Predictor{M: m}}
	return nil
}

// LoadDir loads every regular file in dir as a model artifact; the model
// name is the file name without its extension ("fno32.xfnm" -> "fno32").
// Any unreadable or invalid artifact fails the whole load — a daemon
// must not come up silently missing a model it was pointed at.
func (g *ModelRegistry) LoadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ent := range entries {
		if ent.IsDir() || strings.HasPrefix(ent.Name(), ".") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			return n, err
		}
		name := strings.TrimSuffix(ent.Name(), filepath.Ext(ent.Name()))
		err = g.Load(name, f)
		f.Close()
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Names returns the loaded model names, sorted.
func (g *ModelRegistry) Names() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.models))
	for name := range g.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of loaded models.
func (g *ModelRegistry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.models)
}

// Has reports whether name is loaded.
func (g *ModelRegistry) Has(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.models[name]
	return ok
}

// acquire takes a refcounted handle on name for the duration of a job.
// The release func must be called when the job is done with the model;
// calling it again is a no-op.
func (g *ModelRegistry) acquire(name string) (*modelEntry, func(), error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.models[name]
	if !ok {
		known := make([]string, 0, len(g.models))
		for n := range g.models {
			known = append(known, n)
		}
		sort.Strings(known)
		return nil, nil, &UnknownModelError{Name: name, Known: known}
	}
	e.refs++
	var once sync.Once
	release := func() {
		once.Do(func() {
			g.mu.Lock()
			e.refs--
			g.mu.Unlock()
		})
	}
	return e, release, nil
}

// Refs returns the live reference count for name (0 for unknown names).
func (g *ModelRegistry) Refs(name string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e, ok := g.models[name]; ok {
		return e.refs
	}
	return 0
}

func (g *ModelRegistry) totalRefs() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, e := range g.models {
		n += e.refs
	}
	return n
}

// sharedPredictor is one job's placer FieldPredictor hook over a registry
// model: the entry's predictor plus the daemon's call counter. The
// density/field buffers belong to the calling job's placer.
type sharedPredictor struct {
	entry *modelEntry
	calls *obs.Counter
}

func (p *sharedPredictor) PredictField(density []float64, nx, ny int, exOut, eyOut []float64) {
	p.entry.pred.PredictField(density, nx, ny, exOut, eyOut)
	p.calls.Inc()
}

// CheckGrid lets placer.New refuse a grid the model cannot run on.
func (p *sharedPredictor) CheckGrid(nx, ny int) error { return p.entry.pred.CheckGrid(nx, ny) }
