// Package backend defines the pluggable compute-backend boundary of the
// placement stack: which element type kernel buffers hold and which staged
// kernel bodies operate on them. The float64 pool implementation that the
// rest of the repo grew up on is the *reference* backend; the float32
// backend is the reduced-precision fast path (contiguous staged params,
// FMA-shaped loops, half the memory traffic through the spectral solver).
//
// The boundary has three parts:
//
//   - Buffer management: Alloc/Free check element buffers (Buf) in and out
//     of the engine arena, which pools per element type with exact byte
//     accounting (kernel.Arena).
//   - Kernel bodies: Kernels() is the backend's staged-parameter body
//     registry. The float64 boundary conversions (cvt.*) are registered
//     under stable names; consumers Make a body once, Bind per call, and
//     hand Run to Engine.Launch — allocation-free in steady state, exactly
//     like the hand-built staged bodies in field/wirelength/optim.
//   - Conversion at API boundaries: public structures (field.System's
//     density and potential maps) stay []float64; the cvt.load / cvt.store
//     bodies move values across the precision boundary in single launched
//     passes.
//
// Structured kernels that cannot be expressed elementwise (density scatter,
// the Makhoul spectral transforms) dispatch on the backend identity
// instead: field and dct keep one implementation per element type and pick
// it by backend.
package backend

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"xplace/internal/kernel"
)

// EnvVar selects the process-default backend ("float64", "float32"); tests
// and the CI float32 lane use it to re-run the whole suite on the fast
// path without touching call sites.
const EnvVar = "XPLACE_BACKEND"

// Backend is one element-type implementation of the compute boundary.
type Backend interface {
	// Name is the registry name ("float64", "float32").
	Name() string
	// Alloc checks a zeroed n-element buffer of the backend's type out of
	// the engine arena; Free returns it.
	Alloc(e *kernel.Engine, n int) Buf
	Free(e *kernel.Engine, b Buf)
	// Kernels is the backend's staged-parameter kernel-body registry.
	Kernels() *Kernels
}

// Buf is an opaque element buffer: exactly one typed view is populated,
// decided by the backend that allocated it. Consumers on the reference
// backend read Float64() directly (zero-copy facade); reduced-precision
// consumers use the cvt.* bodies at the boundary.
type Buf struct {
	f64 []float64
	f32 []float32
}

// WrapF64 wraps an existing float64 slice (e.g. a public facade buffer) so
// it can be bound as a kernel-body operand.
func WrapF64(s []float64) Buf { return Buf{f64: s} }

// WrapF32 wraps an existing float32 slice.
func WrapF32(s []float32) Buf { return Buf{f32: s} }

// Len returns the element count of the populated view.
func (b Buf) Len() int {
	if b.f64 != nil {
		return len(b.f64)
	}
	return len(b.f32)
}

// Float64 returns the float64 view (nil unless this is a float64 buffer).
func (b Buf) Float64() []float64 { return b.f64 }

// Float32 returns the float32 view (nil unless this is a float32 buffer).
func (b Buf) Float32() []float32 { return b.f32 }

// IsZero reports whether the Buf holds no storage at all.
func (b Buf) IsZero() bool { return b.f64 == nil && b.f32 == nil }

var (
	regMu    sync.RWMutex
	backends = map[string]Backend{}
)

// Register adds a backend under its Name; registering a duplicate name
// panics (backends are process-global, like database/sql drivers).
func Register(b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := backends[b.Name()]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", b.Name()))
	}
	backends[b.Name()] = b
}

// Lookup returns the backend registered under name. The empty name means
// the process default (Default()).
func Lookup(name string) (Backend, error) {
	if name == "" {
		return Default(), nil
	}
	regMu.RLock()
	b := backends[name]
	regMu.RUnlock()
	if b == nil {
		return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
	}
	return b, nil
}

// Names lists the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(backends))
	for n := range backends {
		out = append(out, n)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// Float64 returns the reference (exact, bit-stable) backend.
func Float64() Backend { return ref }

// Float32 returns the reduced-precision fast-path backend.
func Float32() Backend { return fast }

// Default returns the process-default backend: the one named by the
// XPLACE_BACKEND environment variable when set and known, the reference
// backend otherwise. The env hook is what lets CI run the full test suite
// on the float32 lane without per-test plumbing.
func Default() Backend {
	if name := os.Getenv(EnvVar); name != "" {
		regMu.RLock()
		b := backends[name]
		regMu.RUnlock()
		if b != nil {
			return b
		}
	}
	return ref
}

// Resolve maps nil to the process default; non-nil backends pass through.
// Call sites use it so "no backend configured" follows the env default.
func Resolve(b Backend) Backend {
	if b == nil {
		return Default()
	}
	return b
}

// IsReference reports whether b (nil included) is the exact float64
// reference backend — the paths whose results are pinned bit-for-bit by
// the determinism tests.
func IsReference(b Backend) bool {
	return b == nil || b.Name() == ref.Name()
}
