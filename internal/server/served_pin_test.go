package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/persist"
)

// TestServedInsertsPinned pins what inserts into a served model leave
// behind, splits included: 8,000 shuffled Pendigits points (seed 1) into
// 4 DefaultConfig(16) shards, one classification so every shard holds
// its mirror and query constants, then 1,000 more inserts — about 77 of
// them split a node while the mirror is live and must be repaired. The
// snapshot bytes and every score bit of 200 held-out classifications at
// budgets 4, 32 and 128 hash to one pinned sha256, and each shard's
// published mirror equals a fresh build of its tree block for block. A
// change to how an insert splits, re-summarises or repairs the mirror
// that moves any bit shows here.
func TestServedInsertsPinned(t *testing.T) {
	const (
		warm, more, held = 8000, 1000, 200
		want             = "37b77b36d9c158123e8db938bd9657ddfeb9a972b4601afd296b146b25328fb7"
	)
	d, err := dataset.Pendigits(1)
	if err != nil {
		t.Fatal(err)
	}
	d.Shuffle(1)
	trees := make([]*core.MultiTree, 4)
	for i := range trees {
		if trees[i], err = core.NewMultiTree(core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(trees, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	insert := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Insert(d.X[i], d.Y[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, warm)
	if _, err := s.Classify(d.X[warm+more], 32); err != nil {
		t.Fatal(err)
	}
	nodes := s.Stats().Nodes
	insert(warm, warm+more)
	if s.Stats().Nodes == nodes {
		t.Fatal("no insert split a node")
	}

	h := sha256.New()
	snap := snapshotBytes(t, s)
	h.Write(snap)
	var word [8]byte
	for _, budget := range []int{4, 32, 128} {
		for _, x := range d.X[warm+more : warm+more+held] {
			res, err := s.Classify(x, budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Scores) != len(d.Classes()) {
				t.Fatalf("%d scores for %d classes", len(res.Scores), len(d.Classes()))
			}
			for _, v := range res.Scores {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("served model and answers hash to %s, want %s", got, want)
	}

	fresh, err := persist.DecodeMultiTrees(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	for i, tree := range trees {
		fresh[i].RefreshSoA()
		got, want := publishedMirror(t, tree), publishedMirror(t, fresh[i])
		if len(got) != len(want) {
			t.Fatalf("shard %d: %d mirror nodes, fresh build %d", i, len(got), len(want))
		}
		for j := range got {
			if field := mirrorNodeDiff(got[j], want[j]); field != "" {
				t.Fatalf("shard %d: mirror node %d (depth-first) differs from a fresh build in %s", i, j, field)
			}
		}
	}
}

// publishedMirror returns the mirror node of every node of tree, in
// depth-first order. core keeps its descent mirror unexported, so it is
// read here through reflection; a table row no tree node owns, a mirror
// node that does not point at its own tree node, or an entry not wired
// to its child's mirror node, fails the test.
func publishedMirror(t *testing.T, tree *core.MultiTree) []reflect.Value {
	t.Helper()
	ptr := reflect.ValueOf(tree).Elem().FieldByName("soa") // atomic.Pointer[multiSoA]
	raw := ptr.FieldByName("v").UnsafePointer()
	if raw == nil {
		t.Fatal("no mirror published")
	}
	mirror := reflect.NewAt(ptr.Field(0).Type().Elem().Elem(), raw).Elem()
	index, nodes := mirror.FieldByName("index"), mirror.FieldByName("nodes")
	var out []reflect.Value
	var walk func(n *core.MultiNode)
	walk = func(n *core.MultiNode) {
		idx := index.MapIndex(reflect.ValueOf(n))
		if !idx.IsValid() {
			t.Fatal("a tree node has no mirror node")
		}
		node := nodes.Index(int(idx.Int()))
		if node.FieldByName("node").UnsafePointer() != unsafe.Pointer(n) {
			t.Fatal("a mirror node does not point at the tree node it mirrors")
		}
		out = append(out, node)
		child := node.FieldByName("child")
		for e, en := range n.Entries() {
			if e >= child.Len() || child.Index(e).Int() != index.MapIndex(reflect.ValueOf(en.Child)).Int() {
				t.Fatalf("entry %d of a mirror node is not wired to its child's mirror node", e)
			}
			walk(en.Child)
		}
	}
	walk(tree.Root())
	if index.Len() != len(out) {
		t.Fatalf("%d mirror nodes for %d tree nodes", index.Len(), len(out))
	}
	return out
}

// mirrorNodeDiff names the first field in which two mirror nodes differ
// ("" if none): float blocks bit for bit — a nil one only equal to a nil
// one — flags and class indices by value. The tree node pointer and the
// child indices (table positions) differ between a repaired mirror and
// a fresh one of a decoded tree, so publishedMirror checks the pointer
// against the tree and the wiring, and only the child count is compared
// here.
func mirrorNodeDiff(a, b reflect.Value) string {
	for f := 0; f < a.NumField(); f++ {
		name := a.Type().Field(f).Name
		x, y := a.Field(f), b.Field(f)
		switch {
		case x.Kind() == reflect.Bool:
			if x.Bool() != y.Bool() {
				return name
			}
		case name == "node":
		case x.Len() != y.Len() || x.IsNil() != y.IsNil():
			return name
		case name == "child":
		default:
			for i := 0; i < x.Len(); i++ {
				xi, yi := x.Index(i), y.Index(i)
				if xi.Kind() == reflect.Float64 && math.Float64bits(xi.Float()) != math.Float64bits(yi.Float()) ||
					xi.Kind() == reflect.Int32 && xi.Int() != yi.Int() {
					return name
				}
			}
		}
	}
	return ""
}
