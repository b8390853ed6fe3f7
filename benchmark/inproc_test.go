package main

import (
	"testing"
	"time"
)

func smokeConfig(trace bool) runConfig {
	return runConfig{seed: 1, seconds: 100 * time.Millisecond, trace: trace, smoke: true}
}

// TestInprocWorkloadsSmoke runs every in-process workload once at one
// design and a reduced iteration cap: each must report every end-to-end
// metric, pass its own checks, and launch only engine ops whose prefix the
// layer table knows — an unknown op would otherwise vanish from the shares
// into kernel.host_share. (serve-open's jobs run gp-small's placer.)
func TestInprocWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		if w.inproc == nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, smokeConfig(false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			for _, m := range endToEnd {
				if s := res.E2E[m.Name]; !(s.Value > 0) || s.N < 1 {
					t.Errorf("%s = %+v, want a positive value", m.Name, s)
				}
			}
			if got := res.E2E["gp_iters"].Value; got != 25 {
				t.Errorf("gp_iters = %v, want the smoke cap of 25", got)
			}
			if len(res.ops) == 0 {
				t.Fatal("no operation kept its engine accounting")
			}
			perOp := res.ops[0].stats.PerOp
			for op := range perOp {
				if _, ok := layerOf(op); !ok {
					t.Errorf("%s launches %q, which belongs to no layer", w.name, op)
				}
			}
			if len(perOp) < 5 {
				t.Errorf("only %d engine ops recorded: %v", len(perOp), perOp)
			}
			if w.inproc.nn && perOp["nn.blend_field"].Launches == 0 {
				t.Errorf("%s never blended the predicted field", w.name)
			}
		})
	}
	if _, ok := layerOf("mystery.kernel"); ok {
		t.Error("an unknown prefix was assigned a layer")
	}
}

// TestTracedSmoke runs the traced path of the workloads whose layers the
// others do not reach: nn (gp-nn) and legal/detail/router (flow-full).
func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"gp-nn", "flow-full"} {
		w, _ := findWorkload(name)
		res, err := runWorkload(w, smokeConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s: problems %v", name, res.Problems)
		}
		if len(res.Layer) != len(perLayer) {
			t.Errorf("%s reports %d per-layer metrics, want all %d", name, len(res.Layer), len(perLayer))
		}
		L := res.Layer
		sum := L["wirelength.share"] + L["field.share"] + L["dct.share"] + L["optim.share"] + L["placer.share"] + L["kernel.host_share"]
		if name == "flow-full" && (sum < 0.97 || sum > 1.03) {
			// Each share is a median over the traced operations, so the sum of
			// medians is only near 1; the per-operation check is exact to 0.01.
			t.Errorf("%s: layer shares + host share = %v", name, sum)
		}
		want := map[string][]string{
			"gp-nn":     {"nn.forward_ms", "nn.calls", "nn.host_s", "nn.share", "kernel.host_share"},
			"flow-full": {"legal.tetris_ms", "legal.abacus_ms", "detail.run_s", "detail.flow_share", "detail.hpwl_distinct", "router.route_ms"},
		}[name]
		for _, m := range append(want, "placer.iter_p50_ms", "wirelength.fused_us", "field.scatter_us", "dct.solve_us", "optim.step_us", "kernel.dispatch_us") {
			if !(L[m] > 0) {
				t.Errorf("%s: %s = %v, want a positive value", name, m, L[m])
			}
		}
		if len(res.rec.durations("placer.iter")) == 0 {
			t.Errorf("%s: no iteration spans recorded", name)
		}
	}
}
