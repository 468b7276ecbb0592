package moments

import (
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/mat"
)

// centralAroundRef is the unfused formula CentralAround replaced: centre the
// whole matrix, raise it to each order, and take the column means.
func centralAroundRef(z, mean *mat.Dense, maxOrder int) []*mat.Dense {
	centered := mat.SubRowVec(z, mean)
	out := make([]*mat.Dense, 0, maxOrder-1)
	for j := 2; j <= maxOrder; j++ {
		out = append(out, mat.MeanRows(mat.PowElem(centered, j)))
	}
	return out
}

func TestCentralAroundMatchesUnfusedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ rows, cols, order int }{
		{0, 4, 5}, {1, 3, 5}, {7, 1, 2}, {60, 16, 5}, {333, 9, 8}, {50, 5, 1},
	} {
		// Entries straddle the mean, so odd orders see negative bases.
		z := mat.RandUniform(rng, tc.rows, tc.cols, -3, 3)
		mean := mat.RandUniform(rng, 1, tc.cols, -1, 1)
		got := CentralAround(z, mean, tc.order)
		want := centralAroundRef(z, mean, tc.order)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d orders, want %d", tc, len(got), len(want))
		}
		for k := range want {
			g, w := got[k].Data(), want[k].Data()
			if len(g) != len(w) {
				t.Fatalf("%+v order %d: %d cols, want %d", tc, k+2, len(g), len(w))
			}
			for c := range w {
				if math.Float64bits(g[c]) != math.Float64bits(w[c]) {
					t.Fatalf("%+v order %d col %d: %v, unfused %v", tc, k+2, c, g[c], w[c])
				}
			}
		}
	}
}

func TestCentralAroundAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z := mat.RandUniform(rng, 500, 32, -1, 1)
	mean := mat.MeanRows(z)
	const order = 5
	allocs := testing.AllocsPerRun(20, func() { CentralAround(z, mean, order) })
	// Two slice headers plus one 1×d result per order (struct and
	// storage); nothing proportional to the row count.
	if limit := float64(2 + 2*(order-1)); allocs > limit {
		t.Fatalf("CentralAround allocated %v times per call, want ≤ %v", allocs, limit)
	}
}
