package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := Manifest{Generation: 7, Snapshot: "snapshot-00000007.btsn", Shards: 3, ShardStart: []uint64{4, 9, 2}}
	if err := SaveManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest = %v, ok=%v", err, ok)
	}
	if got.Generation != want.Generation || got.Snapshot != want.Snapshot || got.Shards != want.Shards {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want.ShardStart {
		if got.ShardStart[i] != want.ShardStart[i] {
			t.Fatalf("shard start %d = %d, want %d", i, got.ShardStart[i], want.ShardStart[i])
		}
	}
}

// TestManifestWithoutShardWrites: a manifest written before the write
// counts existed loads with none, which recovery reads as counts of 0.
func TestManifestWithoutShardWrites(t *testing.T) {
	dir := t.TempDir()
	raw := `{"generation":3,"snapshot":"snapshot-00000003.btsn","shards":2,"shard_start":[5,6]}`
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	m, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest = %v, ok=%v", err, ok)
	}
	if m.ShardWrites != nil {
		t.Fatalf("shard writes %v, want none", m.ShardWrites)
	}
}

func TestManifestAbsent(t *testing.T) {
	_, ok, err := LoadManifest(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("empty dir reported a manifest")
	}
}

func TestManifestCorruptAndInvalid(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil {
		t.Fatal("corrupt manifest loaded")
	}
	for name, m := range map[string]Manifest{
		"gen_without_snapshot": {Generation: 2, Shards: 1, ShardStart: []uint64{1}},
		"path_snapshot":        {Generation: 1, Snapshot: "../evil.btsn", Shards: 1, ShardStart: []uint64{1}},
		"zero_shards":          {Generation: 1, Snapshot: "s.btsn"},
		"start_mismatch":       {Generation: 1, Snapshot: "s.btsn", Shards: 2, ShardStart: []uint64{1}},
		"writes_mismatch":      {Generation: 1, Snapshot: "s.btsn", Shards: 2, ShardStart: []uint64{1, 1}, ShardWrites: []uint64{3}},
		"writes_empty":         {Generation: 1, Snapshot: "s.btsn", Shards: 1, ShardStart: []uint64{1}, ShardWrites: []uint64{}},
	} {
		if err := SaveManifest(dir, m); err == nil {
			t.Errorf("%s: invalid manifest saved", name)
		}
	}
}

// TestWriteFileAtomicErrorPathsCleanup is the temp-file audit: no error
// path of an atomic write may strand a temporary file, and a failed
// write must leave existing content untouched.
func TestWriteFileAtomicErrorPathsCleanup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("original"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return fmt.Errorf("encode exploded")
	}); err == nil {
		t.Fatal("failed write reported success")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".bayestree-snap-") {
			t.Fatalf("stranded temp file %s after failed write", e.Name())
		}
	}
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "original" {
		t.Fatalf("failed write clobbered content: %q", content)
	}
}

// TestRemoveStaleTemps sweeps the one case in-process cleanup cannot
// reach: a crash between temp creation and rename.
func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	// Simulate the crash leftovers.
	for i := 0; i < 3; i++ {
		f, err := os.CreateTemp(dir, tempPattern)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	// An unrelated file must survive the sweep.
	keep := filepath.Join(dir, "snapshot-00000001.btsn")
	if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RemoveStaleTemps(dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != filepath.Base(keep) {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("after sweep dir holds %v, want only %s", names, filepath.Base(keep))
	}
	// Missing dir is a no-op.
	if err := RemoveStaleTemps(filepath.Join(dir, "nope")); err != nil {
		t.Fatal(err)
	}
}

// FuzzManifest: whatever bytes stand in MANIFEST, LoadManifest refuses
// them or returns a manifest that validates, names a snapshot inside
// the directory and round-trips through SaveManifest; and every cut of
// a manifest SaveManifest wrote reads as that manifest or is refused.
func FuzzManifest(f *testing.F) {
	whole := Manifest{Generation: 7, Epoch: 2, Snapshot: "snapshot-00000007.btsn", Shards: 3, ShardStart: []uint64{4, 9, 2}, ShardWrites: []uint64{640, 0, 1281}}
	f.Add([]byte(`{"generation":7,"epoch":2,"snapshot":"snapshot-00000007.btsn","shards":3,"shard_start":[4,9,2]}`), 0)
	f.Add([]byte(`{"generation":7,"snapshot":"snapshot-00000007.btsn","shards":3,"shard_start":[4,9,2],"shard_writes":[640,0,1281]}`), 90)
	f.Add([]byte(`{"generation":7,"snapshot":"snapshot-00000007.btsn","shards":3,"shard_start":[4,9,2],"shard_writes":[640,0]}`), 12)
	f.Add([]byte(`{"generation":7,"snapshot":"snapshot-00000007.btsn","shards":1,"shard_start":[4],"shard_writes":[]}`), 5)
	f.Add([]byte(`{"generation":7,"snapshot":"snapshot-00000007.btsn","shards":1,"shard_start":[4],"shard_writes":[-1]}`), 8)
	f.Add([]byte(`{"generation":0,"snapshot":"","shards":1,"shard_start":[0]}`), 40)
	f.Add([]byte(`{"generation":1,"snapshot":"..","shards":1,"shard_start":[1]}`), 1000)
	f.Add([]byte(`{"generation":1,"snapshot":"a/../b","shards":1,"shard_start":[1]}`), -1)
	f.Add([]byte(`{"generation":1,"snapshot":"s","shards":2,"shard_start":[1]}`), 17)
	f.Add([]byte(`{"generation":-1,"shards":1e3,"shard_start":null}`), 3)
	f.Add([]byte(`null`), 60)
	dir, again := f.TempDir(), f.TempDir()
	if err := SaveManifest(dir, whole); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	load := func(t *testing.T, raw []byte) (Manifest, bool) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok, err := LoadManifest(dir)
		if err != nil && ok {
			t.Fatalf("%q: refused (%v) yet reported present", raw, err)
		}
		return m, err == nil
	}
	f.Fuzz(func(t *testing.T, raw []byte, cut int) {
		if m, ok := load(t, raw); ok {
			if err := m.validate(); err != nil {
				t.Fatalf("%q: accepted but %v", raw, err)
			}
			if m.Snapshot != "" && filepath.Dir(filepath.Join(dir, m.Snapshot)) != dir {
				t.Fatalf("%q: snapshot %q is not a file of the directory", raw, m.Snapshot)
			}
			if err := SaveManifest(again, m); err != nil {
				t.Fatalf("%q: accepted but not saved: %v", raw, err)
			}
			if back, ok, err := LoadManifest(again); err != nil || !ok || !reflect.DeepEqual(back, m) {
				t.Fatalf("%q: %+v saved reads back as %+v (%v)", raw, m, back, err)
			}
		}
		cut = int(uint(cut) % uint(len(saved)+1))
		if m, ok := load(t, saved[:cut]); ok && !reflect.DeepEqual(m, whole) {
			t.Fatalf("%q, cut from a saved manifest, read as %+v", saved[:cut], m)
		} else if !ok && cut == len(saved) {
			t.Fatalf("the manifest SaveManifest wrote, %q, is refused", saved)
		}
	})
}
