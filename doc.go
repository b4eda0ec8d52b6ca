// Package bayestree is a Go implementation of index-based anytime stream
// mining as published in "Using Index Structures for Anytime Stream
// Mining" (Kranen, VLDB 2009) and the underlying Bayes tree (Seidl et al.,
// EDBT 2009).
//
// The Bayes tree is a balanced R*-tree-like index whose entries carry
// cluster features (n, LS, SS), so every tree level — and every mixed
// frontier of entries — is a complete Gaussian mixture model of the data.
// An anytime Bayesian classifier descends one tree per class, refining the
// mixture one node read at a time, and can return the current best
// prediction at any interruption point. There is one tree type: a class
// tree is a MultiTree of one class, and the same tree over all classes is
// the single-tree multi-class variant the server shards. Bulk-loading strategies
// (EM top-down, Hilbert/Z-curve/STR packing, Goldberger and
// virtual-sampling mixture reduction) shape the hierarchy for better
// anytime accuracy than iterative insertion.
//
// This package is the public facade: it re-exports the core types and
// provides one-call training. The implementation lives in internal/
// packages (core, bulkload, dataset, eval, stream, clustree, and the
// substrates stats, kernels, mbr).
//
// # The frozen-Gaussian fast path
//
// Anytime refinement is the serving hot path, and it is specialised
// accordingly. Every entry's cluster feature has a frozen form of its
// Gaussian (mean, inverse variances, precomputed log-normaliser and log
// count), laid out per node in the flat mirror every query descends
// through, and each tree caches its query-time constants (root summary,
// Silverman bandwidths, frozen leaf kernel). The mirror, built by the
// first query, follows Insert exactly: it is repaired in place along the
// insert's path (for a split-free insert the inserted class only, to the
// same bits), so a query started after an insert sees the new data
// exactly. Classification queries are pooled: calling Close on them
// recycles their internal buffers, making steady-state classification
// allocation-free. Do not interleave Learn/Insert with in-flight queries
// on the same trees.
//
// # Batch classification
//
// Classification is read-only, so BatchClassify (and
// Classifier.ClassifyBatch / ClassifyBatchBudgets) fan a batch of
// objects over a worker pool sharing one classifier — the throughput
// path for stream serving. Use per-item Classify when each object must
// see every earlier label; use batches when objects may share a model
// snapshot. RunStreamBatch combines both for online streams: windows
// are classified in parallel, labels are learned between windows.
//
// # Persistence
//
// Save and Load (Encode/Decode for streams) snapshot a trained
// classifier to a versioned, checksummed binary format that stores the
// model's source of truth — configuration, topology, observations and
// cluster features — with float64 values preserved bit-exactly. The
// inner entries are derived on load by the trees' own summarize, so a
// reloaded model classifies digit-identically to the saved one; corrupted, truncated and
// incompatible-version snapshots are rejected before any model state
// is built. Snapshots are written atomically (temp file + rename).
//
// # Serving
//
// The internal/server package (driven by cmd/serveclass) serves
// anytime classification over HTTP from a sharded multi-class model:
// per-shard reader/writer locks let inserts proceed while other shards
// keep classifying, a global token-bucket admission controller makes
// aggregate refinement work track a configured node-read capacity, and
// NDJSON streaming classifies request batches in parallel windows.
// See ARCHITECTURE.md for the full design.
//
// Quick start:
//
//	ds, _ := bayestree.LoadCSV("train.csv", bayestree.CSVOptions{LabelColumn: -1})
//	clf, _ := bayestree.Train(ds, bayestree.TrainOptions{Loader: "emtopdown"})
//	label := clf.Classify(x, 25) // classify x with a budget of 25 node reads
//	_ = bayestree.Save(clf, "model.btsn")
//
// See the examples/ directory for runnable programs and EXPERIMENTS.md for
// the reproduction of the paper's evaluation.
package bayestree
