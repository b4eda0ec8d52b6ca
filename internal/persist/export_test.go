package persist

import (
	"bytes"
	"fmt"

	"bayestree/internal/core"
)

// EncodeAt encodes m — a *core.Classifier, a *core.MultiTree or a
// []*core.MultiTree — in the given format version: the writer of
// versions before 3 survives for tests only, here and in the external
// tests that build served models through internal/server.
func EncodeAt(version uint32, m any) []byte {
	var e *encoder
	switch m := m.(type) {
	case *core.Classifier:
		e = newEncoderVersion(kindClassifier, version)
		e.classifier(m)
	case *core.MultiTree:
		e = newEncoderVersion(kindMultiTree, version)
		e.multiTree(m)
	case []*core.MultiTree:
		e = newEncoderVersion(kindMultiSet, version)
		if version >= 3 {
			e.multiSet(m)
			break
		}
		e.u64(uint64(len(m))) // v1/v2 sections carry no lengths
		for _, t := range m {
			e.multiTree(t)
		}
	default:
		panic(fmt.Sprintf("persist: EncodeAt of %T", m))
	}
	var buf bytes.Buffer
	if err := e.flush(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
