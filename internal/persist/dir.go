package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// This file holds what a durability directory and a multi-tenant
// registry root share as directories: the single-writer lock, and the
// crash-hygiene sweep for a tree of durability directories — a crash
// mid-eviction can strand an atomic-write temp file inside a tenant
// subdirectory that may not be loaded again for days, so the startup
// sweep must walk the whole tree, not just the root.

// LockDir takes a non-blocking exclusive flock on dir/LOCK — the
// single-writer guarantee of a durability directory or a registry root.
// The kernel drops the lock whenever the holding process dies, so a
// crashed server never wedges its own restart; closing the returned
// file releases it.
func LockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: lock %s: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

// RemoveStaleTempsTree sweeps stranded atomic-write temp files from
// dir and every directory below it. RemoveStaleTemps cleans one
// directory — enough for a single-tenant durability dir, where startup
// always visits the root — but a registry root holds one subdirectory
// per tenant and a crash mid-eviction strands the temp inside the
// victim tenant's directory, which a cold tenant might not open again
// for days. Walking the tree at registry open bounds that exposure to
// one restart. A missing dir is a no-op; unreadable subdirectories are
// reported, not skipped silently.
func RemoveStaleTempsTree(dir string) error {
	var first error
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			if first == nil {
				first = fmt.Errorf("persist: sweep temps %s: %w", path, err)
			}
			return nil
		}
		if !d.IsDir() {
			return nil
		}
		if err := RemoveStaleTemps(path); err != nil && first == nil {
			first = err
		}
		return nil
	})
	if err != nil && first == nil {
		first = fmt.Errorf("persist: sweep temps %s: %w", dir, err)
	}
	return first
}
