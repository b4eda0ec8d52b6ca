// sut.go is the only file of the benchmark that imports
// bayestree/internal/...; everything else in this directory sees the
// system under test through the spec and sut interfaces below. The
// signatures it wraps are the complete API surface the benchmark needs
// from the product — a refactor that moves or renames one of them must
// be followed by a benchmark issue that updates this file and nothing
// else:
//
//	dataset.Pendigits
//	core.DefaultConfig, core.NewMultiTree, core.MultiOptions, core.ClassifierOptions, core.DecayOptions
//	(*core.MultiTree).Insert, RefreshSoA, SoACounters, NewQuery, Len, Root, Labels, Config
//	(*core.MultiQuery).Step, Scores, UsedSoA, NodesRead, Close
//	(*core.MultiNode).IsLeaf, Entries; core.MultiEntry.Child
//	kernels.SweepFrozenLogPDFObs
//	clustree.DefaultConfig, clustree.Config, clustree.New, (*clustree.Tree).InsertCounted, MicroClusters, Prune, Parked
//	wal.Open, wal.Options, (*wal.Log).Append, Stats, Close, wal.OpenReader, (*wal.Reader).Next, Close
//	persist.EncodeMultiTrees, persist.DecodeMultiTrees
//	server.New, server.FromSnapshot, server.OpenDurableServer, server.DurabilityOptions, server.Config
//	(*server.Server).Classify, Insert, Handler, Recover, CloseDurability, Close, Stats, WriteSnapshot
//	server.NewCluster, server.ClusterFromSnapshot, server.ClusterOptions
//	(*server.ClusterServer).Insert, MicroClusters, Handler, AdvanceDecay, WriteSnapshot, Close, Stats
//	server.SplitBudget, server.RouteShard
package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/kernels"
	"bayestree/internal/persist"
	"bayestree/internal/server"
	"bayestree/internal/wal"
)

// walFsync is the group-commit interval of every durable system and of
// the WAL probe.
const walFsync = 100 * time.Millisecond

// answer is what one request returned, reduced to the fields the rungs
// of the ladder must agree on. A field is -1 where a rung cannot know
// it (the model rung has no label) or where it is not deterministic
// (cluster batches are ingested by a concurrent pool behind HTTP).
type answer struct {
	label, granted, nodesRead int
	// count is the number of micro-clusters a cluster read returned.
	count int
}

var noAnswer = answer{label: -1, granted: -1, nodesRead: -1}

// modelCounters are the work counts the model rung reads off the shard
// models after its pass.
type modelCounters struct {
	shardQueries, soaHits    int64 // classifier reads
	soaRebuilds, soaPatches  int64 // classifier writes
	inserts, visited, parked int64 // cluster writes
}

func (m *modelCounters) add(o modelCounters) {
	m.shardQueries += o.shardQueries
	m.soaHits += o.soaHits
	m.soaRebuilds += o.soaRebuilds
	m.soaPatches += o.soaPatches
	m.inserts += o.inserts
	m.visited += o.visited
	m.parked += o.parked
}

// spec builds identical fresh systems, one per round and one per rung.
type spec interface {
	// build returns a fresh system; its durable state, if any, lives
	// under dir. Only a system built for the ladder can execute at the
	// model rung.
	build(dir string, ladder bool) (sut, error)
	// preloaded is the number of observations build puts in the model.
	preloaded() int
	// restore rebuilds a serving system from what park left under dir.
	restore(dir string) (sut, error)
	// decode parses snapshot bytes written by sut.snapshot.
	decode(b []byte) error
}

// sut is one system under test.
type sut interface {
	handler() http.Handler
	// serve executes r through the server's exported method.
	serve(r *request) (answer, error)
	// model executes r directly on the shard models; refresh is the part
	// of a write spent re-publishing the descent mirror. The classifier's
	// models are the trees its server was built over. The cluster server
	// builds its trees itself, so there the model rung has identically
	// configured trees of its own, and shadow applies a write executed
	// at rung g to whichever copy that rung left untouched.
	model(r *request) (a answer, refresh time.Duration)
	shadow(r *request, g rung)
	// tick runs one decay maintenance step through the server,
	// modelTick the same step directly on the models.
	tick()
	modelTick()
	observations() int
	snapshot(w io.Writer) error
	counters() modelCounters
	// nodeShape is the (rows, dim) of one node's block of frozen
	// Gaussians and whether the kernel sweep is on this system's read
	// path.
	nodeShape() (rows, dim int, swept bool)
	// walStats reports the server's WAL counters (zero when memory-only)
	// and walDirs its segment directories.
	walStats() (appends, syncs, bytes int64)
	walDirs() []string
	// park stops the system and leaves under its directory what restore
	// reads; close stops it. Both may follow each other.
	park() error
	close()
}

// ---------------------------------------------------------------- data

// point is one labelled observation.
type point struct {
	x     []float64
	label int
}

// pendigits returns the repo's synthetic Pendigits stand-in, shuffled
// with seed.
func pendigits(seed int64) ([]point, []int, error) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		return nil, nil, err
	}
	d.Shuffle(seed)
	pts := make([]point, d.Len())
	for i := range pts {
		pts[i] = point{x: d.X[i], label: d.Y[i]}
	}
	return pts, d.Classes(), nil
}

// ---------------------------------------------------------- classifier

// classSpec describes a 4-shard classification server: train is bulk
// inserted into trees handed to server.New, or, when durable, inserted
// through a fresh OpenDurableServer so the WAL holds it.
type classSpec struct {
	train   []point
	labels  []int
	dim     int
	shards  int
	durable bool
}

type classSystem struct {
	srv     *server.Server
	trees   []*core.MultiTree
	dir     string
	durable bool
	mc      modelCounters
}

func (c classSpec) emptyTrees() ([]*core.MultiTree, error) {
	trees := make([]*core.MultiTree, c.shards)
	for i := range trees {
		t, err := core.NewMultiTree(core.DefaultConfig(c.dim), c.labels, core.MultiOptions{})
		if err != nil {
			return nil, err
		}
		trees[i] = t
	}
	return trees, nil
}

func (c classSpec) open(dir string, bootstrap func() (*server.Server, error)) (*server.Server, error) {
	srv, err := server.OpenDurableServer(server.DurabilityOptions{Dir: dir, FsyncEvery: walFsync}, server.Config{}, bootstrap)
	if err != nil {
		return nil, err
	}
	if err := srv.Recover(); err != nil {
		return nil, err
	}
	return srv, nil
}

func (c classSpec) preloaded() int { return len(c.train) }

func (c classSpec) build(dir string, _ bool) (sut, error) {
	trees, err := c.emptyTrees()
	if err != nil {
		return nil, err
	}
	s := &classSystem{trees: trees, dir: dir, durable: c.durable}
	if !c.durable {
		for _, p := range c.train {
			if err := trees[server.RouteShard(p.x, c.shards)].Insert(p.x, p.label); err != nil {
				return nil, err
			}
		}
		s.srv, err = server.New(trees, server.Config{})
		return s, err
	}
	s.srv, err = c.open(dir, func() (*server.Server, error) { return server.New(trees, server.Config{}) })
	if err != nil {
		return nil, err
	}
	for _, p := range c.train {
		if err := s.srv.Insert(p.x, p.label); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (c classSpec) restore(dir string) (sut, error) {
	s := &classSystem{dir: dir, durable: c.durable}
	var err error
	if c.durable {
		s.srv, err = c.open(dir, func() (*server.Server, error) {
			return nil, fmt.Errorf("restore: %s holds no manifest", dir)
		})
		return s, err
	}
	f, err := os.Open(filepath.Join(dir, "snapshot"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s.srv, err = server.FromSnapshot(f, server.Config{})
	return s, err
}

func (c classSpec) decode(b []byte) error {
	_, err := persist.DecodeMultiTrees(bytes.NewReader(b))
	return err
}

func (s *classSystem) handler() http.Handler { return s.srv.Handler() }

func (s *classSystem) serve(r *request) (answer, error) {
	if r.kind == kindInsert {
		return noAnswer, s.srv.Insert(r.x, r.label)
	}
	res, err := s.srv.Classify(r.x, r.budget)
	return answer{label: res.Label, granted: res.Granted, nodesRead: res.NodesRead}, err
}

// model repeats what Server.Classify and Server.Insert do between
// taking and releasing the shard locks, on the same trees.
func (s *classSystem) model(r *request) (answer, time.Duration) {
	if r.kind == kindInsert {
		t := s.trees[server.RouteShard(r.x, len(s.trees))]
		if err := t.Insert(r.x, r.label); err != nil {
			panic(err) // the stream only carries known labels and finite points
		}
		t0 := time.Now()
		t.RefreshSoA()
		return noAnswer, time.Since(t0)
	}
	sizes := make([]int, len(s.trees))
	total := 0
	for i, t := range s.trees {
		sizes[i] = t.Len()
		total += sizes[i]
	}
	read := 0
	for i, b := range server.SplitBudget(r.budget, sizes, total) {
		if sizes[i] == 0 {
			continue
		}
		q, err := s.trees[i].NewQuery(r.x, core.ClassifierOptions{})
		if err != nil {
			panic(err)
		}
		for ; b > 0 && q.Step(); b-- {
		}
		read += q.NodesRead()
		_ = q.Scores()
		s.mc.shardQueries++
		if q.UsedSoA() {
			s.mc.soaHits++
		}
		q.Close()
	}
	return answer{label: -1, granted: r.budget, nodesRead: read}, 0
}

func (s *classSystem) shadow(*request, rung) {}
func (s *classSystem) tick()                 {}
func (s *classSystem) modelTick()            {}

func (s *classSystem) observations() int { return s.srv.Stats().Observations }

func (s *classSystem) snapshot(w io.Writer) error {
	if s.trees == nil {
		return fmt.Errorf("snapshot: restored system holds no trees of the benchmark's")
	}
	return persist.EncodeMultiTrees(w, s.trees)
}

func (s *classSystem) counters() modelCounters {
	mc := s.mc
	for _, t := range s.trees {
		r, p, _ := t.SoACounters()
		mc.soaRebuilds += r
		mc.soaPatches += p
	}
	return mc
}

// nodeShape walks the inner nodes for the mean fan-out: one node read
// sweeps fan-out × classes frozen Gaussians of dim terms each.
func (s *classSystem) nodeShape() (rows, dim int, swept bool) {
	nodes, entries := 0, 0
	var walk func(n *core.MultiNode)
	walk = func(n *core.MultiNode) {
		if n == nil || n.IsLeaf() {
			return
		}
		nodes++
		for _, e := range n.Entries() {
			entries++
			walk(e.Child)
		}
	}
	labels := 0
	for _, t := range s.trees {
		walk(t.Root())
		labels = len(t.Labels())
		dim = t.Config().Dim
	}
	if nodes == 0 {
		return labels, dim, true
	}
	return (entries + nodes/2) / nodes * labels, dim, true
}

func (s *classSystem) walStats() (appends, syncs, bytes int64) {
	st := s.srv.Stats()
	return st.WALAppends, st.WALSyncs, st.WALBytes
}

func (s *classSystem) walDirs() []string {
	if !s.durable {
		return nil
	}
	dirs, _ := filepath.Glob(filepath.Join(s.dir, "shard-*"))
	return dirs
}

func (s *classSystem) park() error {
	s.srv.Close()
	if s.durable {
		return s.srv.CloseDurability()
	}
	return writeFile(filepath.Join(s.dir, "snapshot"), s.srv.WriteSnapshot)
}

func (s *classSystem) close() {
	s.srv.Close()
	s.srv.CloseDurability() // error dropped: the directory is removed next
}

// ------------------------------------------------------------- cluster

// clusterSpec describes a 4-shard clustering server warmed with preload
// (ingested in process, with a maintenance tick every tickEvery objects).
type clusterSpec struct {
	preload   [][]float64
	dim       int
	shards    int
	budget    int
	tickEvery int
	lambda    float64
	minWeight float64
}

type clusterSystem struct {
	srv  *server.ClusterServer
	dir  string
	ccfg clustree.Config
	// trees and clock are the model rung's shard trees and logical
	// clock; nil outside the ladder.
	trees     []*clustree.Tree
	clock     int64
	minWeight float64
	mc        modelCounters
}

func (c clusterSpec) config() (clustree.Config, server.Config) {
	ccfg := clustree.DefaultConfig(c.dim)
	ccfg.Lambda = c.lambda
	return ccfg, server.Config{Decay: core.DecayOptions{Lambda: c.lambda, MinWeight: c.minWeight}}
}

func (c clusterSpec) preloaded() int { return len(c.preload) }

func (c clusterSpec) build(dir string, ladder bool) (sut, error) {
	ccfg, cfg := c.config()
	s := &clusterSystem{dir: dir, ccfg: ccfg, minWeight: c.minWeight}
	var err error
	if s.srv, err = server.NewCluster(ccfg, c.shards, cfg, server.ClusterOptions{}); err != nil {
		return nil, err
	}
	if ladder {
		s.trees = make([]*clustree.Tree, c.shards)
		for i := range s.trees {
			if s.trees[i], err = clustree.New(ccfg); err != nil {
				return nil, err
			}
		}
	}
	warm := &request{kind: kindCluster, budget: c.budget}
	for i := 0; i < len(c.preload); i += c.tickEvery {
		warm.batch = c.preload[i:min(i+c.tickEvery, len(c.preload))]
		if _, err := s.serve(warm); err != nil {
			return nil, err
		}
		s.tick()
		if ladder {
			s.model(warm)
			s.modelTick()
		}
	}
	s.mc = modelCounters{}
	return s, nil
}

func (c clusterSpec) fromSnapshot(b []byte) (*server.ClusterServer, error) {
	_, cfg := c.config()
	return server.ClusterFromSnapshot(bytes.NewReader(b), cfg, server.ClusterOptions{})
}

func (c clusterSpec) restore(dir string) (sut, error) {
	b, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		return nil, err
	}
	srv, err := c.fromSnapshot(b)
	return &clusterSystem{srv: srv, dir: dir, minWeight: c.minWeight}, err
}

func (c clusterSpec) decode(b []byte) error {
	srv, err := c.fromSnapshot(b)
	if err == nil {
		srv.Close()
	}
	return err
}

func (s *clusterSystem) handler() http.Handler { return s.srv.Handler() }

func (s *clusterSystem) serve(r *request) (answer, error) {
	if r.kind == kindMicro {
		a := noAnswer
		a.count = len(s.srv.MicroClusters(s.minWeight))
		return a, nil
	}
	a := answer{label: -1, nodesRead: -1}
	for _, x := range r.batch {
		res, err := s.srv.Insert(x, r.budget)
		if err != nil {
			return a, err
		}
		a.granted += res.Granted
	}
	return a, nil
}

func (s *clusterSystem) model(r *request) (answer, time.Duration) {
	if r.kind == kindMicro {
		a := noAnswer
		for _, t := range s.trees {
			a.count += len(t.MicroClusters(s.minWeight))
		}
		return a, 0
	}
	a := answer{label: -1, nodesRead: -1}
	for _, x := range r.batch {
		s.clock++
		t := s.trees[server.RouteShard(x, len(s.trees))]
		before := t.Parked()
		visited, err := t.InsertCounted(x, float64(s.clock), r.budget)
		if err != nil {
			panic(err) // the stream only carries points of the model's dimension
		}
		a.granted += r.budget
		s.mc.inserts++
		s.mc.visited += int64(visited)
		s.mc.parked += int64(t.Parked() - before)
	}
	return a, 0
}

func (s *clusterSystem) shadow(r *request, g rung) {
	if g == rungModel {
		s.serve(r) // error dropped: the timed copy already took the same batch
	} else {
		s.model(r)
	}
}

func (s *clusterSystem) tick() { s.srv.AdvanceDecay() }

func (s *clusterSystem) modelTick() {
	for _, t := range s.trees {
		t.Prune(s.minWeight)
	}
}

func (s *clusterSystem) observations() int { return s.srv.Stats().Observations }

func (s *clusterSystem) snapshot(w io.Writer) error { return s.srv.WriteSnapshot(w) }

func (s *clusterSystem) counters() modelCounters { return s.mc }

func (s *clusterSystem) nodeShape() (rows, dim int, swept bool) {
	return s.ccfg.MaxFanout, s.ccfg.Dim, false
}

func (s *clusterSystem) walStats() (appends, syncs, bytes int64) { return 0, 0, 0 }
func (s *clusterSystem) walDirs() []string                       { return nil }

func (s *clusterSystem) park() error {
	s.srv.Close()
	return writeFile(filepath.Join(s.dir, "snapshot"), s.srv.WriteSnapshot)
}

func (s *clusterSystem) close() { s.srv.Close() }

// -------------------------------------------------------------- probes

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepProbe times kernels.SweepFrozenLogPDFObs over blocks of rows
// frozen Gaussians of dim terms and returns nanoseconds per row. The
// blocks are distinct so successive calls do not re-read one cache-hot
// block, as a descent does not.
func sweepProbe(rows, dim int) float64 {
	const blocks, passes = 256, 40
	rng := rand.New(rand.NewSource(1))
	fill := func(n int, f func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f()
		}
		return v
	}
	n := blocks * rows
	means := fill(n*dim, rng.Float64)
	invVar := fill(n*dim, func() float64 { return 1 + rng.Float64() })
	logVar := fill(n*dim, rng.NormFloat64)
	logNorm := fill(n, rng.NormFloat64)
	x := fill(dim, rng.Float64)
	out := make([]float64, rows)
	took := make([]float64, passes)
	for p := range took {
		t0 := time.Now()
		for b := 0; b < blocks; b++ {
			lo, hi := b*rows*dim, (b+1)*rows*dim
			kernels.SweepFrozenLogPDFObs(x, means[lo:hi], invVar[lo:hi], logVar[lo:hi], logNorm[b*rows:(b+1)*rows], rows, dim, nil, out)
		}
		took[p] = float64(time.Since(t0).Nanoseconds())
	}
	return median(took) / float64(n)
}

// openWAL opens a fresh group-commit log under dir for the WAL rung and
// reports what framing adds to a record (the framed size of an empty one,
// which it appends to find out).
func openWAL(dir string) (appendRecord func([]byte) error, closeLog func(), overhead int64, err error) {
	lg, err := wal.Open(dir, wal.Options{FsyncEvery: walFsync})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := lg.Append(nil); err != nil {
		lg.Close()
		return nil, nil, 0, err
	}
	return lg.Append, func() { lg.Close() }, lg.Stats().Bytes, nil
}

// walReplay reads every record of the given segment directories, as
// recovery does before it applies them.
func walReplay(dirs []string) (records int, took time.Duration, err error) {
	t0 := time.Now()
	for _, dir := range dirs {
		r, err := wal.OpenReader(dir, 0)
		if err != nil {
			return 0, 0, err
		}
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				r.Close()
				return 0, 0, err
			}
			records++
		}
		r.Close()
	}
	return records, time.Since(t0), nil
}
