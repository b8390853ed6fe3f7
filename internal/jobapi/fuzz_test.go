package jobapi

import (
	"bytes"
	"encoding/json"
	"testing"
)

// canonicalOf decodes and canonicalizes one wire request; ok is false
// when either step rejects it.
func canonicalOf(data []byte) (req Request, payload []byte, key string, ok bool) {
	if json.Unmarshal(data, &req) != nil {
		return req, nil, "", false
	}
	payload, key, err := req.Canonical()
	return req, payload, key, err == nil
}

// identity is the canonical payload with the fields CacheKey ignores
// blanked.
func identity(req Request) []byte {
	req.Label, req.Trace, req.Timeout, req.AllowDraft = "", false, "", false
	b, _ := json.Marshal(req)
	return b
}

// FuzzRequestCanonical fuzzes the wire-request trust boundary: arbitrary
// bytes never panic, canonicalization is idempotent, and the cache key is
// a faithful content address — equal keys mean byte-equal canonical
// payloads up to label, trace, timeout and allow_draft.
func FuzzRequestCanonical(f *testing.F) {
	for _, body := range []string{
		`{"bench":"fft_1"}`,
		`{"bench":"fft_1","scale":0.02,"seed":1,"mode":"xplace","strategy":"nesterov"}`,
		`{"bench":"fft_1","seed":2,"label":"x","trace":true,"timeout":"30s","allow_draft":true}`,
		`{"bench":"adaptec1","scale":0.004,"mode":"baseline","strategy":"lbub","max_iter":40,"grid":64,"model":"fno32"}`,
		// The rejected rows of the contract suite's validation table.
		`{`, `{}`, `{"bench":"no-such-bench"}`,
		`{"bench":"fft_1","scale":-0.5}`, `{"bench":"fft_1","grid":-4}`, `{"bench":"fft_1","max_iter":-1}`,
		`{"bench":"fft_1","timeout":"-1s"}`, `{"bench":"fft_1","timeout":"potato"}`, `{"bench":"fft_1","scale":"big"}`,
		`{"bench":"fft_1","mode":"bogus"}`, `{"bench":"fft_1","strategy":"annealing"}`, `{"bench":"fft_1","model":"a|b"}`,
	} {
		f.Add([]byte(body), []byte(`{"bench":"fft_1","seed":1}`))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		reqA, payloadA, keyA, ok := canonicalOf(a)
		if !ok {
			return
		}
		if _, again, keyAgain, ok := canonicalOf(payloadA); !ok || !bytes.Equal(again, payloadA) || keyAgain != keyA {
			t.Fatalf("not idempotent: %s (%q) -> %s (%q), ok=%v", payloadA, keyA, again, keyAgain, ok)
		}
		reqB, _, keyB, ok := canonicalOf(b)
		if ok && keyA == keyB && !bytes.Equal(identity(reqA), identity(reqB)) {
			t.Fatalf("key %q names two placements: %s and %s", keyA, identity(reqA), identity(reqB))
		}
	})
}

// FuzzStatusDecode fuzzes the status decoder, which a gateway runs on
// every worker's reply: arbitrary bytes never panic, and whatever decodes
// re-encodes to bytes that decode and re-encode to the same bytes.
func FuzzStatusDecode(f *testing.F) {
	for _, name := range []string{"worker", "gateway", "queued"} {
		f.Add(readFixture(f, name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st Status
		if json.Unmarshal(data, &st) != nil {
			return
		}
		enc, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("%q decodes but does not re-encode: %v", data, err)
		}
		var again Status
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", enc, err)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not stable: %s -> %s (%v)", enc, enc2, err)
		}
	})
}
