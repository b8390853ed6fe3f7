package jobapi

import (
	"strings"
	"testing"
)

// TestModelInCacheKey: the model changes the converged placement, so two
// requests differing only in model must never collide in the result
// cache, while the empty model stays canonical with the omitted one.
func TestModelInCacheKey(t *testing.T) {
	plain := Request{Bench: "fft_1"}
	plain.Normalize()
	modeled := Request{Bench: "fft_1", Model: "fno32"}
	modeled.Normalize()
	if plain.CacheKey() == modeled.CacheKey() {
		t.Fatal("model-less and modeled requests share a cache key")
	}
	other := Request{Bench: "fft_1", Model: "fno64"}
	other.Normalize()
	if modeled.CacheKey() == other.CacheKey() {
		t.Fatal("distinct models share a cache key")
	}
	if !strings.Contains(modeled.CacheKey(), "model=fno32") {
		t.Fatalf("cache key %q does not carry the model", modeled.CacheKey())
	}
}

// TestValidateModelName: names are kept safe for the cache key they
// become part of; registry membership is the scheduler's concern.
func TestValidateModelName(t *testing.T) {
	cases := []struct {
		name, model string
		ok          bool
	}{
		{"empty", "", true},
		{"plain", "fno32", true},
		{"dots and dashes", "fno-32.v2", true},
		{"pipe", "a|b", false},
		{"equals", "a=b", false},
		{"newline", "a\nb", false},
		{"max length", strings.Repeat("x", 128), true},
		{"over length", strings.Repeat("x", 129), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Request{Bench: "fft_1", Model: tc.model}
			if err := r.Validate(); (err == nil) != tc.ok {
				t.Fatalf("model %q: err = %v, want ok=%v", tc.model, err, tc.ok)
			}
		})
	}
}

// TestToSpecCarriesModel: the model survives the wire→Spec expansion and
// the durable payload round trip (WAL recovery must not drop it).
func TestToSpecCarriesModel(t *testing.T) {
	r := Request{Bench: "fft_1", Scale: 0.002, Model: "fno32"}
	spec, err := r.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Model != "fno32" {
		t.Fatalf("Spec.Model = %q, want fno32", spec.Model)
	}
	if !strings.Contains(string(spec.Payload), `"model":"fno32"`) {
		t.Fatalf("durable payload %s does not carry the model", spec.Payload)
	}
	re, err := Rehydrate(spec.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if re.Model != "fno32" || re.Key != spec.Key {
		t.Fatalf("rehydrated model %q key %q, want fno32 / %q", re.Model, re.Key, spec.Key)
	}
}

// TestCanonicalMatchesToSpec: the design-free path and the full expansion
// are one derivation — same payload, same key, same normalization.
func TestCanonicalMatchesToSpec(t *testing.T) {
	a := Request{Bench: "fft_1", Scale: 0.002, Timeout: "30s"}
	b := a
	payload, key, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := b.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(spec.Payload) || key != spec.Key || a != b {
		t.Fatalf("Canonical = %s / %q, ToSpec = %s / %q", payload, key, spec.Payload, spec.Key)
	}
}
