package core

import (
	"math"
	"testing"

	"fedomd/internal/ad"
	"fedomd/internal/nn"
	"fedomd/internal/telemetry"
)

// forwardCost returns the process-wide SpMM and tape-op counts.
func forwardCost() (spmm, ops int64) {
	c := telemetry.GlobalCounters()
	return c["sparse/spmm_calls"], c["ad/tape_ops"]
}

// perturbed returns a copy of ps with every weight shifted by delta.
func perturbed(ps *nn.Params, delta float64) *nn.Params {
	out := ps.Clone()
	for i := 0; i < out.Len(); i++ {
		d := out.At(i).Data()
		for j := range d {
			d[j] += delta
		}
	}
	return out
}

func TestEvalAndStatsShareOneForward(t *testing.T) {
	c, err := NewClient("one", tinyGraph(t, 41), quickConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// The first forward also builds the model's constant S̃X (one SpMM);
	// take it out of the measurement.
	c.EvalVal()
	if err := c.SetParams(perturbed(c.Params(), 0.01)); err != nil {
		t.Fatal(err)
	}
	s0, o0 := forwardCost()
	c.EvalVal()
	c.EvalTest()
	means, _, err := c.LocalMeans()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CentralAroundGlobal(means); err != nil {
		t.Fatal(err)
	}
	s1, o1 := forwardCost()
	// The cost of one dropout-off forward at the same weights.
	tp := ad.NewTape()
	c.forward(tp, false)
	tp.Release()
	s2, o2 := forwardCost()
	oneSpMM, oneOps := s2-s1, o2-o1
	if oneSpMM == 0 || oneOps == 0 {
		t.Fatalf("a forward recorded %d SpMMs and %d tape ops", oneSpMM, oneOps)
	}
	if s1-s0 != oneSpMM || o1-o0 != oneOps {
		t.Fatalf("four calls after SetParams cost %d SpMMs / %d tape ops, one forward is %d / %d",
			s1-s0, o1-o0, oneSpMM, oneOps)
	}

	// Returned statistics are owned by the caller: scribbling on them must
	// not reach the cache.
	want := means[0].At(0, 0)
	means[0].Set(0, 0, want+1)
	again, _, err := c.LocalMeans()
	if err != nil {
		t.Fatal(err)
	}
	if again[0].At(0, 0) != want || again[0] == means[0] {
		t.Fatalf("LocalMeans returned shared storage: %v vs %v", again[0].At(0, 0), want)
	}
}

// clientOutputs returns the bit patterns of everything the four cached
// calls report. fresh forces each call onto its own forward, which makes the
// client an uncached reference.
func clientOutputs(t *testing.T, c *Client, fresh bool) []uint64 {
	t.Helper()
	miss := func() {
		if fresh {
			c.eval.Release()
		}
	}
	var out []uint64
	miss()
	vc, vt := c.EvalVal()
	miss()
	tc, tt := c.EvalTest()
	out = append(out, uint64(vc), uint64(vt), uint64(tc), uint64(tt))
	miss()
	means, n, err := c.LocalMeans()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, uint64(n), math.Float64bits(c.obsMax))
	for _, m := range means {
		for _, v := range m.Data() {
			out = append(out, math.Float64bits(v))
		}
	}
	miss()
	moms, _, err := c.CentralAroundGlobal(means)
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range moms {
		for _, m := range layer {
			for _, v := range m.Data() {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}

func TestEvalCacheRecomputesOnEveryChange(t *testing.T) {
	g := tinyGraph(t, 42)
	cfg := quickConfig()
	cfg.Dropout = 0.3 // training consumes the RNG; eval must not
	c, err := NewClient("cached", g, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewClient("reference", g, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	global := perturbed(c.Params(), 0.02)
	steps := []struct {
		name string
		do   func(*Client) error
	}{
		{"SetParams", func(k *Client) error { return k.SetParams(global) }},
		{"TrainLocal", func(k *Client) error {
			means, _, err := k.LocalMeans()
			if err != nil {
				return err
			}
			moms, _, err := k.CentralAroundGlobal(means)
			if err != nil {
				return err
			}
			k.SetGlobalStats(means, moms)
			_, err = k.TrainLocal(0)
			return err
		}},
		{"in-place Model().Params()", func(k *Client) error {
			w := k.Model().Params().Get("w_ortho1")
			w.Set(0, 0, w.At(0, 0)+1)
			return nil
		}},
		{"SetSpectralBound", func(k *Client) error {
			k.Model().SetSpectralBound(false)
			return nil
		}},
	}
	prev := clientOutputs(t, c, false)
	for _, st := range steps {
		if err := st.do(c); err != nil {
			t.Fatal(err)
		}
		if err := st.do(ref); err != nil {
			t.Fatal(err)
		}
		got := clientOutputs(t, c, false)
		want := clientOutputs(t, ref, true)
		if len(got) != len(want) {
			t.Fatalf("after %s: %d outputs, reference %d", st.name, len(got), len(want))
		}
		changed := false
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after %s: output %d is %x, uncached reference %x", st.name, i, got[i], want[i])
			}
			changed = changed || got[i] != prev[i]
		}
		if !changed {
			t.Fatalf("%s left every output unchanged; the step does not exercise the key", st.name)
		}
		prev = got
	}
}
