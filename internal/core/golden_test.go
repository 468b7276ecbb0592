package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"fedomd/internal/codec"
	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/telemetry"
)

// The golden digests pin a 10-round FedOMD run bit for bit: per-round
// TrainLoss/ValAcc/TestAcc, the final scores and byte totals, and every
// float of FinalParams. They were recorded before the client learned to
// share one inference forward between evaluation and the statistics
// exchange, so any drift that sharing introduces fails here.
const (
	goldenInProcess = "9439b42bed79bd3a"
	goldenLoopback  = "fbe4fbe8b86fee74"
)

// goldenFleet builds three FedOMD parties with dropout on, so the training
// RNG stream is part of what the digest covers.
func goldenFleet(t *testing.T) []fed.Client {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Hidden = 16
	clients, _, err := NewClients(tinyGraph(t, 31), 3, 1.0, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]fed.Client, len(clients))
	for i, c := range clients {
		out[i] = c
	}
	return out
}

// runDigest hashes the bit patterns of everything a run reports.
func runDigest(res *fed.Result) string {
	h := fnv.New64a()
	put := func(v float64) { fmt.Fprintf(h, "%016x", math.Float64bits(v)) }
	for _, r := range res.History {
		put(r.TrainLoss)
		put(r.ValAcc)
		put(r.TestAcc)
	}
	put(res.BestValAcc)
	put(res.TestAtBestVal)
	put(res.FinalValAcc)
	put(res.FinalTestAcc)
	fmt.Fprintf(h, "%d/%d/%d", res.BestRound, res.TotalBytesUp, res.TotalBytesDown)
	for i := 0; i < res.FinalParams.Len(); i++ {
		for _, v := range res.FinalParams.At(i).Data() {
			put(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenRunInProcess(t *testing.T) {
	res, err := fed.Run(fed.Config{Rounds: 10}, goldenFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := runDigest(res); got != goldenInProcess {
		t.Fatalf("in-process run digest %s, golden %s", got, goldenInProcess)
	}
}

// goldenAsyncInProcess pins the buffered engine on real FedOMD clients: with
// BufferK equal to the fleet size every fold waits for all three parties, so
// the means, moments and aux path of the async job is deterministic. It was
// recorded before the sync and async engines shared their per-party steps.
const goldenAsyncInProcess = "7751c7190e2989df"

func TestGoldenAsyncRunInProcess(t *testing.T) {
	res, err := fed.Run(fed.Config{Rounds: 10, Aggregation: fed.AggAsync, BufferK: 3}, goldenFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := runDigest(res); got != goldenAsyncInProcess {
		t.Fatalf("in-process async run digest %s, golden %s", got, goldenAsyncInProcess)
	}
}

func TestGoldenRunLoopbackQ8(t *testing.T) {
	if got := loopbackQ8Digest(t, goldenFleet(t)); got != goldenLoopback {
		t.Fatalf("loopback q8 run digest %s, golden %s", got, goldenLoopback)
	}
}

// loopbackQ8Digest runs the parties for 10 rounds over loopback TCP with the
// q8 codec and returns the run digest.
func loopbackQ8Digest(t *testing.T, parties []fed.Client) string {
	t.Helper()
	q8, err := codec.Parse("q8", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns []net.Conn
	var wg sync.WaitGroup
	errs := make([]error, len(parties))
	// Dial in a fixed order so the coordinator numbers parties the same way
	// on every run.
	for i, p := range parties {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		wg.Add(1)
		go func(i int, p fed.Client) {
			defer wg.Done()
			errs[i] = fed.ServeClientConnOpts(conn, p, fed.ServeOptions{})
		}(i, p)
	}
	res, err := fed.RunDistributedOpts(fed.Config{Rounds: 10, Codec: q8}, ln, len(parties), fed.TransportOptions{})
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if perr := errors.Join(errs...); perr != nil {
		t.Fatalf("party: %v", perr)
	}
	return runDigest(res)
}

// The sparse golden fleet has bag-of-words features (400 columns, 5 active
// per node), so every party's propagated features S̃X are a few percent
// nonzero — the regime of real citation graphs, where the first layer runs
// the sparse-operand kernel. The golden fleet above has 24 features and a
// dense S̃X in every party. These digests were recorded before the first
// layer learned to skip zeros, so any drift that introduces fails here.
const (
	goldenSparseInProcess = "7e3fbe0a817c3e3e"
	goldenSparseLoopback  = "021ff451e8883819"
)

// sparseFleet builds three FedOMD parties over the bag-of-words fixture.
// Hidden 20 puts both SIMD-tile and edge columns into every product.
func sparseFleet(t *testing.T) []fed.Client {
	t.Helper()
	g, err := dataset.Generate(dataset.Config{Name: "bow", Nodes: 900, Edges: 2500, Classes: 4,
		Features: 400, CommunitiesPerClass: 2, Homophily: 0.85, ActiveFeatures: 5, SignalRatio: 0.9}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Split(rand.New(rand.NewSource(13)), 0.1, 0.2, 0.2); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hidden = 20
	clients, _, err := NewClients(g, 3, 1.0, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]fed.Client, len(clients))
	for i, c := range clients {
		prop := c.s.MulDense(c.g.Features)
		nnz := 0
		for _, v := range prop.Data() {
			if v != 0 {
				nnz++
			}
		}
		if r, f := prop.Dims(); 10*nnz > r*f {
			t.Fatalf("party %d: S̃X is %d/%d nonzero, want a bag-of-words fixture", i, nnz, r*f)
		}
		out[i] = c
	}
	return out
}

// sparseKernelCalls reads the process count of sparse-operand products.
func sparseKernelCalls() int64 { return telemetry.GlobalCounters()["mat/csrmm_calls"] }

func TestGoldenSparseRunInProcess(t *testing.T) {
	fleet := sparseFleet(t)
	before := sparseKernelCalls()
	res, err := fed.Run(fed.Config{Rounds: 10}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	// Every party runs at least one forward and one backward product per
	// round on the sparse path.
	if calls := sparseKernelCalls() - before; calls < int64(2*10*len(fleet)) {
		t.Fatalf("%d sparse-operand products over 10 rounds of %d parties: the first layer ran dense", calls, len(fleet))
	}
	if got := runDigest(res); got != goldenSparseInProcess {
		t.Fatalf("in-process sparse run digest %s, golden %s", got, goldenSparseInProcess)
	}
}

func TestGoldenSparseRunLoopbackQ8(t *testing.T) {
	if got := loopbackQ8Digest(t, sparseFleet(t)); got != goldenSparseLoopback {
		t.Fatalf("loopback q8 sparse run digest %s, golden %s", got, goldenSparseLoopback)
	}
}
