package backend

import (
	"math"
	"testing"

	"xplace/internal/kernel"
)

// TestRegistryLookup: both backends are registered, lookup works by name,
// empty name resolves to the default, unknown names error.
func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"float64", "float32"} {
		b, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := Lookup("float16"); err == nil {
		t.Fatal("Lookup of unknown backend succeeded")
	}
	if b, _ := Lookup(""); b == nil {
		t.Fatal("Lookup(\"\") returned nil")
	}
	if got := Names(); len(got) < 2 {
		t.Fatalf("Names() = %v, want at least float32+float64", got)
	}
}

// TestEnvDefault: XPLACE_BACKEND selects the process default; Resolve maps
// nil through it and explicit backends pass unchanged.
func TestEnvDefault(t *testing.T) {
	t.Setenv(EnvVar, "float32")
	if got := Default().Name(); got != "float32" {
		t.Fatalf("Default() under env = %q, want float32", got)
	}
	if got := Resolve(nil).Name(); got != "float32" {
		t.Fatalf("Resolve(nil) under env = %q, want float32", got)
	}
	if got := Resolve(Float64()).Name(); got != "float64" {
		t.Fatalf("Resolve(Float64()) = %q, want float64", got)
	}
	t.Setenv(EnvVar, "bogus")
	if got := Default().Name(); got != "float64" {
		t.Fatalf("Default() under unknown env = %q, want reference", got)
	}
}

// TestIsReference: nil and the float64 backend are the reference; float32
// is not.
func TestIsReference(t *testing.T) {
	if !IsReference(nil) || !IsReference(Float64()) {
		t.Fatal("nil / Float64() should be the reference backend")
	}
	if IsReference(Float32()) {
		t.Fatal("Float32() must not count as the reference backend")
	}
}

// TestBufAllocRoundTrip: Alloc returns a zeroed buffer of the backend's
// element type against the engine arena; Free returns every byte.
func TestBufAllocRoundTrip(t *testing.T) {
	e := kernel.New(kernel.Options{Workers: 2})
	defer e.Close()
	elemBytes := map[string]int64{"float64": 8, "float32": 4}
	for _, b := range []Backend{Float64(), Float32()} {
		buf := b.Alloc(e, 1024)
		if buf.Len() != 1024 {
			t.Fatalf("%s: Len = %d", b.Name(), buf.Len())
		}
		if st := e.ArenaStats(); st.InUse != elemBytes[b.Name()]*1024 {
			t.Fatalf("%s: InUse = %d, want %d", b.Name(), st.InUse, elemBytes[b.Name()]*1024)
		}
		if (b.Name() == "float64") != (buf.Float64() != nil) || (b.Name() == "float32") != (buf.Float32() != nil) {
			t.Fatalf("%s: wrong populated view", b.Name())
		}
		if buf.IsZero() || !(Buf{}).IsZero() {
			t.Fatalf("%s: IsZero is %v on an allocated Buf, %v on the zero Buf", b.Name(), buf.IsZero(), (Buf{}).IsZero())
		}
		b.Free(e, buf)
		if st := e.ArenaStats(); st.InUse != 0 {
			t.Fatalf("%s: InUse after free = %d", b.Name(), st.InUse)
		}
	}
}

// TestVecBodiesParity: the two boundary conversions carry the same values
// on both backends (within float32 rounding), through Bind + Run.
func TestVecBodiesParity(t *testing.T) {
	const n = 257 // odd, not a power of two
	src := make([]float64, n)
	for i := range src {
		src[i] = math.Sin(float64(i)*0.37) * 3
	}

	e := kernel.New(kernel.Options{Workers: 2})
	defer e.Close()
	for _, b := range []Backend{Float64(), Float32()} {
		tol := 0.0
		if b.Name() == "float32" {
			tol = 1e-6
		}
		a := b.Alloc(e, n)
		ld := b.Kernels().Make("cvt.load")
		ld.Bind(a, WrapF64(src), Buf{}, 0)
		ld.Run(0, n)
		out := make([]float64, n)
		st := b.Kernels().Make("cvt.store")
		st.Bind(WrapF64(out), a, Buf{}, 0)
		st.Run(0, n)
		for i := 0; i < n; i++ {
			if d := math.Abs(out[i] - src[i]); d > tol*(1+math.Abs(src[i])) {
				t.Fatalf("%s: out[%d] = %g, want %g", b.Name(), i, out[i], src[i])
			}
		}
		b.Free(e, a)
	}
}

// TestKernelsUnknownBodyPanics: Has knows the registered bodies, and
// asking for an unregistered one is a programming error.
func TestKernelsUnknownBodyPanics(t *testing.T) {
	if k := Float64().Kernels(); !k.Has("cvt.load") || k.Has("vec.nonsense") {
		t.Fatalf("Has: cvt.load %v, vec.nonsense %v", k.Has("cvt.load"), k.Has("vec.nonsense"))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Make of unknown body did not panic")
		}
	}()
	Float64().Kernels().Make("vec.nonsense")
}
