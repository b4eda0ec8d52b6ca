package persist

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRemoveStaleTempsTree is the crash-mid-eviction hygiene property:
// temp files stranded inside per-tenant subdirectories — not just the
// registry root — must be swept, because a cold tenant's directory may
// not be opened again for a long time.
func TestRemoveStaleTempsTree(t *testing.T) {
	root := t.TempDir()
	tenantA := filepath.Join(root, "tenants", "alpha")
	tenantAWAL := filepath.Join(tenantA, "shard-000")
	tenantB := filepath.Join(root, "tenants", "beta")
	for _, d := range []string{tenantAWAL, tenantB} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	strand := func(dir string) string {
		f, err := os.CreateTemp(dir, tempPattern)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return f.Name()
	}
	stranded := []string{strand(root), strand(tenantA), strand(tenantAWAL), strand(tenantB)}
	keep := filepath.Join(tenantA, "MANIFEST")
	if err := os.WriteFile(keep, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := RemoveStaleTempsTree(root); err != nil {
		t.Fatal(err)
	}
	for _, p := range stranded {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stranded temp %s survived the tree sweep", p)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("non-temp file swept: %v", err)
	}

	// A missing root is a no-op, matching RemoveStaleTemps.
	if err := RemoveStaleTempsTree(filepath.Join(root, "missing")); err != nil {
		t.Fatalf("missing dir: %v", err)
	}
}
