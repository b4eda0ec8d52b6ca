package wire

import (
	"encoding/binary"
	"math"
	"testing"
)

// The fuzz targets hold the codec to encoding/json on whatever the
// fuzzer finds. `go test` runs their seed corpora as plain tests; CI's
// "Fuzz smoke" step runs each for a few seconds.

// FuzzDecodeLine: DecodeLine against json.Unmarshal (and, on the same
// text, DecodeBody against a json.Decoder), for every decodable type.
func FuzzDecodeLine(f *testing.F) {
	for _, text := range decodeCorpus {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

// FuzzDecodeBody: the same check over texts built to end early or run
// on — the first value of a body is all a json.Decoder reads, so what
// the fuzzer appends after a seed's value must not change the answer.
func FuzzDecodeBody(f *testing.F) {
	for _, text := range decodeCorpus {
		f.Add([]byte(text), []byte(` {"x":[9]}`))
		f.Add([]byte(text), []byte("]"))
	}
	f.Fuzz(func(t *testing.T, data, rest []byte) { checkDecode(t, append(data[:len(data):len(data)], rest...)) })
}

// floatsOf reads raw as float64s, eight bytes each: the fuzzer reaches
// every bit pattern, the non-finite and the subnormal among them. A
// trailing fragment picks between nil (odd length) and empty.
func floatsOf(raw []byte) []float64 {
	if len(raw) < 8 {
		if len(raw)%2 == 1 {
			return nil
		}
		return []float64{}
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// floatSeeds are hardFloats as floatsOf reads them.
func floatSeeds() []byte {
	var raw []byte
	for _, f := range hardFloats {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(f))
	}
	return raw
}

// FuzzAppendResult: Result and ResultLine against the oracle.
func FuzzAppendResult(f *testing.F) {
	f.Add(1, 25, 25, 25, false, []byte(nil), 0.0, []byte(nil), "")
	f.Add(2, 8, 4, 4, true, floatSeeds(), 300.0, []byte{0, 1, 2}, "")
	f.Add(0, 0, 0, 0, false, []byte{1}, math.Copysign(0, -1), []byte{}, "bad request line: <&> \xff")
	f.Add(-1, math.MaxInt64, math.MinInt64, 7, true, []byte{2, 2}, 1e21, []byte{9}, "x")
	f.Fuzz(func(t *testing.T, label, requested, granted, read int, degraded bool, scores []byte, weight float64, labels []byte, msg string) {
		res := Result{Label: label, Requested: requested, Granted: granted, NodesRead: read, Degraded: degraded,
			Scores: floatsOf(scores), Weight: weight}
		if labels != nil {
			res.Labels = make([]int, len(labels))
			for i, l := range labels {
				res.Labels[i] = int(int8(l)) * (requested | 1)
			}
		}
		checkAppend(t, ResultLine{Result: res, Error: msg})
		checkAppend(t, res)
	})
}

// FuzzAppendClusterResult: ClusterResult and ClusterLine.
func FuzzAppendClusterResult(f *testing.F) {
	f.Add(3, 8, 8, 4, true, false, "")
	f.Add(0, 0, 0, 0, false, false, "server: point dim 1 != model dim 2")
	f.Add(-1, math.MaxInt64, math.MinInt64, 1, false, true, " <\x80")
	f.Fuzz(func(t *testing.T, shard, requested, granted, read int, parked, degraded bool, msg string) {
		res := ClusterResult{Shard: shard, Requested: requested, Granted: granted, NodesRead: read, Parked: parked, Degraded: degraded}
		checkAppend(t, ClusterLine{ClusterResult: res, Error: msg})
		checkAppend(t, res)
	})
}

// FuzzAppendError: the error document, the /insert line that is one,
// and the insert ack.
func FuzzAppendError(f *testing.F) {
	for _, s := range hardStrings {
		f.Add(s, 0, true)
	}
	f.Add("draining", 53, true)
	f.Fuzz(func(t *testing.T, msg string, observations int, ok bool) {
		checkAppend(t, Error{Error: msg})
		checkAppend(t, InsertAck{Observations: observations, OK: ok})
	})
}

// FuzzAppendMicroClusterList: floats across the format's switches.
func FuzzAppendMicroClusterList(f *testing.F) {
	f.Add(2, floatSeeds(), floatSeeds(), 2)
	f.Add(0, []byte(nil), []byte{1}, 0)
	f.Add(-5, []byte{1, 2}, []byte{}, 3)
	f.Fuzz(func(t *testing.T, count int, scalars, mean []byte, dim int) {
		var list MicroClusterList
		list.Count = count
		vals, m := floatsOf(scalars), floatsOf(mean)
		if vals != nil {
			list.MicroClusters = []MicroClusterJSON{}
		}
		for i := 0; i+1 < len(vals); i += 2 {
			mc := MicroClusterJSON{Weight: vals[i], Radius: vals[i+1], Mean: m}
			if dim > 0 && len(m) > 0 {
				mc.Mean = m[i%len(m):][:min(dim, len(m)-i%len(m))]
			}
			list.MicroClusters = append(list.MicroClusters, mc)
		}
		checkAppend(t, list)
	})
}

// FuzzAppendRequest: the three requests the proxy and the load
// generator send.
func FuzzAppendRequest(f *testing.F) {
	f.Add(floatSeeds(), 32, true, false)
	f.Add([]byte(nil), 0, false, false)
	f.Add([]byte{1}, -1, false, true)
	f.Fuzz(func(t *testing.T, x []byte, n int, scores, literal bool) {
		checkAppend(t, ClassifyRequest{X: floatsOf(x), Budget: n, Scores: scores, Literal: literal})
		checkAppend(t, InsertRequest{X: floatsOf(x), Label: n})
		checkAppend(t, ClusterRequest{X: floatsOf(x), Budget: n})
	})
}
