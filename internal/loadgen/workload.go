package loadgen

import (
	"fmt"
	"math/rand"

	"bayestree/internal/replica"
	"bayestree/internal/wire"
)

// This file generates the request mix. The classification workload
// interleaves labelled inserts with classify queries drawn from a
// held-out labelled set — so the harness can score every answer against
// ground truth and report accuracy as a function of load, not just
// latency. The clustering workload is pure budgeted ingest. Both draw
// from the same three-blob synthetic distribution the repo's benchmarks
// and serving tests use, so loadgen numbers sit on the same data as the
// existing accuracy records.

// Request kinds, used as histogram/report keys.
const (
	// KindClassify is a POST /classify drawn from the labelled holdout.
	KindClassify = "classify"
	// KindInsert is a labelled POST /insert.
	KindInsert = "insert"
	// KindIngest is a clustering POST /cluster.
	KindIngest = "ingest"
)

// Workload selects which server the scenario drives.
type Workload string

// The two served workloads, under the names the servers give them.
const (
	// WorkloadClassify drives a classification server (serveclass).
	WorkloadClassify Workload = replica.WorkloadClassify
	// WorkloadCluster drives a clustering server (servecluster).
	WorkloadCluster Workload = replica.WorkloadCluster
)

// classDim is the dimensionality of the synthetic classification
// distribution (three separated blobs, matching the serving tests).
const classDim = 3

// clusterDim is the dimensionality of the synthetic clustering stream.
const clusterDim = 2

// classPoint draws one labelled observation from the three-blob
// distribution.
func classPoint(rng *rand.Rand) ([]float64, int) {
	label := rng.Intn(3)
	return []float64{
		float64(label)*3 + 0.4*rng.NormFloat64(),
		-float64(label)*3 + 0.4*rng.NormFloat64(),
		rng.NormFloat64(),
	}, label
}

// clusterPoint draws one unlabelled clustering observation.
func clusterPoint(rng *rand.Rand) []float64 {
	return []float64{rng.Float64(), rng.Float64()}
}

// TenantName names loadgen's i-th synthetic tenant. Exported so the
// benchmark harness can pre-create or inspect the same population the
// generator addresses.
func TenantName(i int) string {
	return fmt.Sprintf("lg%04d", i)
}

// DefaultTenantSkew is the Zipf skew exponent for multi-tenant traffic
// when the scenario does not say: a heavy-tailed popularity curve —
// a hot head of tenants plus a long cold tail — which is exactly the
// access pattern LRU paging is designed for.
const DefaultTenantSkew = 1.2

// Holdout is a fixed labelled evaluation set replayed through
// /classify: every classify request carries a known true label, so the
// report's accuracy is measured, not assumed.
type Holdout struct {
	// X and Y are the held-out points and their true labels.
	X [][]float64
	Y []int
}

// NewHoldout draws n labelled points deterministically from seed.
func NewHoldout(n int, seed int64) *Holdout {
	rng := rand.New(rand.NewSource(seed))
	h := &Holdout{X: make([][]float64, n), Y: make([]int, n)}
	for i := range h.X {
		h.X[i], h.Y[i] = classPoint(rng)
	}
	return h
}

// Mix parameterises the request mix of one scenario.
type Mix struct {
	// InsertFraction is the fraction of classification-workload requests
	// that are inserts (the rest are classify queries); ignored by the
	// clustering workload, which is all ingest.
	InsertFraction float64
	// Budget is the per-request anytime budget (0 = server default,
	// negative = as much as the cap and admission allow).
	Budget int
}

// request is one generated request, ready to send.
type request struct {
	kind string
	path string
	body []byte
	// wantLabel is the true label of a holdout classify point, -1
	// otherwise.
	wantLabel int
}

// generator produces the request stream for one scenario. Not safe for
// concurrent use; the runner gives each worker its own.
type generator struct {
	workload Workload
	mix      Mix
	holdout  *Holdout
	hot      hotMarker
	hotClass []float64 // fixed hot observation, classification dim
	hotClust []float64 // fixed hot observation, clustering dim
	rng      *rand.Rand
	cursor   int
	tenants  int        // > 0 routes requests across /t/{tenant} paths
	zipf     *rand.Zipf // tenant popularity, heavy-tailed
}

// newGenerator builds a per-worker generator. proc supplies key skew
// when it is a hotMarker (the adversarial hot-key process); holdout may
// be nil for the clustering workload. tenants > 0 spreads the traffic
// across that many named tenants with Zipf(skew) popularity — tenant 0
// hottest, the tail touched rarely, so a paging registry sees a
// realistic hot-set/cold-tail access pattern.
func newGenerator(workload Workload, mix Mix, holdout *Holdout, proc Process, seed int64, tenants int, skew float64) *generator {
	g := &generator{
		workload: workload,
		mix:      mix,
		holdout:  holdout,
		rng:      rand.New(rand.NewSource(seed)),
		// The hot key is one fixed in-distribution point: every hot
		// request hashes to the same shard and descends the same subtree.
		hotClass: []float64{3.0, -3.0, 0.0},
		hotClust: []float64{0.5, 0.5},
		tenants:  tenants,
	}
	if tenants > 0 {
		if skew <= 1 {
			skew = DefaultTenantSkew
		}
		g.zipf = rand.NewZipf(g.rng, skew, 1, uint64(tenants-1))
	}
	if hm, ok := proc.(hotMarker); ok {
		g.hot = hm
	}
	return g
}

// tenantPrefix draws the request's tenant path prefix ("" in
// single-tenant mode).
func (g *generator) tenantPrefix() string {
	if g.tenants <= 0 {
		return ""
	}
	return "/t/" + TenantName(int(g.zipf.Uint64()))
}

// next generates one request, its body the route's own wire type.
func (g *generator) next() request {
	pre := g.tenantPrefix()
	hot := g.hot != nil && g.hot.Hot(g.rng)
	if g.workload == WorkloadCluster {
		x := clusterPoint(g.rng)
		if hot {
			x = g.hotClust
		}
		body := wire.ClusterRequest{X: x, Budget: g.mix.Budget}.AppendJSON(nil)
		return request{kind: KindIngest, path: pre + "/cluster", body: body, wantLabel: -1}
	}
	if g.rng.Float64() < g.mix.InsertFraction {
		x, label := classPoint(g.rng)
		if hot {
			x, label = g.hotClass, 1
		}
		body := wire.InsertRequest{X: x, Label: label}.AppendJSON(nil)
		return request{kind: KindInsert, path: pre + "/insert", body: body, wantLabel: -1}
	}
	want := -1
	var x []float64
	if hot {
		x = g.hotClass
	} else {
		i := g.cursor % len(g.holdout.X)
		g.cursor++
		x, want = g.holdout.X[i], g.holdout.Y[i]
	}
	// A scored classify asks for the log scores its log-loss is read from.
	body := wire.ClassifyRequest{X: x, Budget: g.mix.Budget, Scores: want >= 0}.AppendJSON(nil)
	return request{kind: KindClassify, path: pre + "/classify", body: body, wantLabel: want}
}
