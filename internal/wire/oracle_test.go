package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// encoding/json is this package's oracle: the struct tags of the wire
// types are its specification, and the two methods below — ScoreList's
// JSON form as internal/server declared it until the codec moved here —
// complete it. They exist in the test binary only; production has one
// encoder and one decoder for the null ⇄ -Inf rule.

// MarshalJSON encodes non-finite scores as null.
func (s ScoreList) MarshalJSON() ([]byte, error) {
	out := make([]*float64, len(s))
	for i := range s {
		if v := s[i]; !math.IsInf(v, 0) && !math.IsNaN(v) {
			out[i] = &s[i]
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes null back to -Inf.
func (s *ScoreList) UnmarshalJSON(b []byte) error {
	var raw []*float64
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	*s = make(ScoreList, len(raw))
	for i, p := range raw {
		if p == nil {
			(*s)[i] = math.Inf(-1)
		} else {
			(*s)[i] = *p
		}
	}
	return nil
}

// values lists every wire type, by a maker of zero values.
var values = []func() Value{
	func() Value { return new(ClassifyRequest) },
	func() Value { return new(InsertRequest) },
	func() Value { return new(ClusterRequest) },
	func() Value { return new(Result) },
	func() Value { return new(ClusterResult) },
	func() Value { return new(MicroClusterList) },
	func() Value { return new(Error) },
	func() Value { return new(ResultLine) },
	func() Value { return new(ClusterLine) },
	func() Value { return new(InsertAck) },
	func() Value { return new(MicroClusterJSON) },
}

// TestShapesMatchTags: a type's shape says what its struct tags say —
// the keys in field order (an embedded struct's first), omitempty where
// the tag has it, each pointer at its field — so the tags the oracle
// reads and the table the codec reads cannot drift apart unnoticed.
func TestShapesMatchTags(t *testing.T) {
	for _, zero := range values {
		v := zero()
		s := v.shape()
		var fields []reflect.Value
		var tags []string
		var walk func(rv reflect.Value)
		walk = func(rv reflect.Value) {
			for i := 0; i < rv.NumField(); i++ {
				if f := rv.Type().Field(i); f.Anonymous {
					walk(rv.Field(i))
				} else {
					fields, tags = append(fields, rv.Field(i)), append(tags, f.Tag.Get("json"))
				}
			}
		}
		walk(reflect.ValueOf(v).Elem())
		if len(s.keys) != len(fields) {
			t.Fatalf("%T: %d keys for %d fields", v, len(s.keys), len(fields))
		}
		for i, tag := range tags {
			name, opts, _ := strings.Cut(tag, ",")
			if s.keys[i] != `"`+name+`":` || (s.omit>>i&1 != 0) != (opts == "omitempty") || s.at[i] != fields[i].Addr().Interface() {
				t.Errorf("%T member %d: key %s omit %v at %T, tag %q on %s", v, i, s.keys[i], s.omit>>i&1 != 0, s.at[i], tag, fields[i].Type())
			}
		}
	}
}

// same reports whether two decoded values are equal to the bit: nil and
// empty slices apart, and -0 apart from 0, which DeepEqual lets through.
func same(a, b Value) bool {
	return reflect.DeepEqual(a, b) && fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

// checkDecode holds both decoders to the oracle on one text, for every
// type: accept exactly when the oracle accepts, and then equal values.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	for _, zero := range values {
		got, want := zero(), zero()
		gotErr, wantErr := DecodeLine(data, got), json.Unmarshal(data, want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeLine(%q) into %T: %v, json.Unmarshal: %v", data, got, gotErr, wantErr)
		}
		if gotErr == nil && !same(got, want) {
			t.Fatalf("DecodeLine(%q) = %+v, json.Unmarshal = %+v", data, got, want)
		}
		got, want = zero(), zero()
		gotErr, wantErr = DecodeBody(data, got), json.NewDecoder(bytes.NewReader(data)).Decode(want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeBody(%q) into %T: %v, json.Decoder: %v", data, got, gotErr, wantErr)
		}
		if gotErr == nil && !same(got, want) {
			t.Fatalf("DecodeBody(%q) = %+v, json.Decoder = %+v", data, got, want)
		}
	}
}

// decodeCorpus seeds the fuzz targets and is the differential test's
// table: the request shapes the benchmark and the load generator send,
// the answers the servers give, and the corners of the contract.
var decodeCorpus = []string{
	// Live traffic: bench/workloads.go, internal/loadgen before and after
	// this codec (the unknown "label" on /classify and /cluster), the
	// proxy's backend request.
	`{"x":[0.1,0.25,-3e-7],"budget":128}`,
	`{"x":[3,-3,0.2],"label":1}`,
	`{"x":[0.5,0.5],"budget":8}` + "\n",
	`{"x":[0.4,0.6],"budget":32,"label":0}`,
	`{"x":[0.4,0.6],"label":0}`,
	`{"x":[1,2,3],"budget":0,"scores":true,"literal_budget":true}`,
	// Answers.
	`{"label":1,"requested":25,"granted":25,"nodes_read":25,"degraded":false}`,
	`{"label":2,"requested":8,"granted":4,"nodes_read":4,"degraded":true,"scores":[-1.5,null,-1e-9],"weight":300,"labels":[0,1,2]}`,
	`{"label":0,"requested":0,"granted":0,"nodes_read":0,"degraded":false,"error":"bad request line: x"}`,
	`{"shard":3,"requested":8,"granted":8,"nodes_read":4,"parked":true,"degraded":false}`,
	`{"count":2,"micro_clusters":[{"weight":1.5,"mean":[0.1,0.2],"radius":0.01},{"weight":2,"mean":[],"radius":0}]}`,
	`{"count":0,"micro_clusters":[]}`,
	`{"count":0,"micro_clusters":null}`,
	`{"error":"server: point dim 1 != model dim 3"}`,
	`{"observations":53,"ok":true}`,
	`{"ok":true}`,
	`{"weight":1.5,"mean":[0.1,0.2],"radius":0.01}`,
	// Keys: reordered, duplicated, unknown, nested unknown, mixed case,
	// folded from outside ASCII, escaped, invalid.
	`{"budget":3,"x":[1]}`,
	`{"x":[1,2],"x":[3]}`,
	`{"x":[1,2,3],"x":[null]}`,
	`{"x":[1,2,3],"x":[4],"x":[null,null]}`,
	`{"x":[1,2],"x":[],"x":[null]}`,
	`{"x":[1,2],"x":null,"x":[null]}`,
	`{"budget":1,"budget":2}`,
	`{"scores":[1,2],"scores":[null]}`,
	`{"labels":[1,2],"labels":[null]}`,
	`{"micro_clusters":[{"weight":1,"mean":[1,2]}],"micro_clusters":[{"radius":2,"mean":[null]},null]}`,
	`{"micro_clusters":[{"weight":1}],"micro_clusters":[null]}`,
	`{"y":[1,{"x":[2]}],"x":[5],"z":{"x":{"x":null}}}`,
	`{"X":[1],"BUDGET":2,"Scores":true,"Literal_Budget":true}`,
	`{"x":[1],"X":[2]}`,
	`{"X":[2],"x":[1]}`,
	"{\"\u017fcores\":true,\"\u017fhard\":1,\"par\u212aed\":true,\"o\u212a\":true}",
	"{\"\u0131d\":1,\"labe\u0142\":1}",
	`{"\u0078":[1],"b\u0075dget":7}`,
	`{"\ud83d\ude00":1,"\ud83d":2,"\ude00\ud83d":3,"x":[1]}`,
	"{\"x\xff\":[1],\"x\":[2]}",
	`{"":1,"x":[1]}`,
	`{"error":"a\u0000b\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00\ud83dx"}`,
	"{\"error\":\"caf\u00e9 \xff\xfe \u2028\"}",
	// null, wrong types, numbers.
	`null`,
	` null `,
	`nullx`,
	`null x`,
	`nul`,
	`{"x":null,"budget":null,"scores":null,"literal_budget":null,"label":null}`,
	`{"label":null,"scores":null,"weight":null,"labels":null,"degraded":null,"error":null}`,
	`{"budget":1e2}`,
	`{"budget":1.5}`,
	`{"budget":1.0}`,
	`{"budget":-0}`,
	`{"budget":"3"}`,
	`{"budget":true}`,
	`{"budget":9223372036854775807}`,
	`{"budget":9223372036854775808}`,
	`{"budget":-9223372036854775809}`,
	`{"x":[1e999]}`,
	`{"x":[-1e999]}`,
	`{"x":[1e-999,-0,0.0,1E+2,5e-324,1.7976931348623157e308]}`,
	`{"x":[01]}`,
	`{"x":[1.]}`,
	`{"x":[.5]}`,
	`{"x":[+1]}`,
	`{"x":[-]}`,
	`{"x":[1e]}`,
	`{"x":[1e+]}`,
	`{"x":[0x10]}`,
	`{"x":[1_000]}`,
	`{"x":[NaN]}`,
	`{"x":[Infinity]}`,
	`{"x":["1"]}`,
	`{"x":[[1]]}`,
	`{"x":[true]}`,
	`{"x":{"0":1}}`,
	`{"x":"1,2"}`,
	`{"x":5}`,
	`{"x":[1,]}`,
	`{"x":[,1]}`,
	`{"x":[1 2]}`,
	`{"scores":true}`,
	`{"scores":"yes"}`,
	`{"scores":1}`,
	`{"scores":[1e999]}`,
	`{"scores":5}`,
	`{"scores":{}}`,
	`{"degraded":0}`,
	`{"error":5}`,
	`{"error":["x"]}`,
	`{"weight":"1"}`,
	`{"micro_clusters":{}}`,
	`{"micro_clusters":[1]}`,
	`{"micro_clusters":[[]]}`,
	`{"count":1.5}`,
	`{"ok":1,"observations":true}`,
	`{"mean":[null,"1"],"radius":{}}`,
	// White space, trailing bytes, other top-level values, broken texts.
	" \t\r\n{ \"x\" : [ 1 , 2 ] , \"budget\" : 3 } \r\n",
	"\v{\"x\":[1]}",
	"\ufeff{\"x\":[1]}",
	`{"x":[1]} x`,
	`{"x":[1]}{"x":[2]}`,
	`{"x":[1]},`,
	`{"x":[1]}]`,
	`{"x":[1]`,
	`{"x":[1`,
	`{"x":`,
	`{"x"`,
	`{"x`,
	`{`,
	`{}`,
	`{,}`,
	`{"x":[1],}`,
	`{"x" [1]}`,
	`{x:[1]}`,
	`{'x':[1]}`,
	`{"x":[1]"budget":2}`,
	`{"a":tru}`,
	`{"a":truex}`,
	`{"a":nul}`,
	`{"a":"\x"}`,
	`{"a":"\u12"}`,
	`{"a":"\u12g4"}`,
	"{\"a\":\"\x01\"}",
	"{\"a\":\"\x7f\"}",
	"{\"a\x00\":1}",
	"{\"x\":[1]}\x00",
	"\x00",
	``,
	` `,
	`[]`,
	`[{"x":[1]}]`,
	`"x"`,
	`12`,
	`12 `,
	`-`,
	`true`,
	`false x`,
	strings.Repeat("[", 20),
	`{"a":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"a":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	`{"a":` + strings.Repeat(`{"a":`, maxDepth-1) + `1` + strings.Repeat("}", maxDepth-1) + `}`,
	`{"a":` + strings.Repeat(`{"a":`, maxDepth) + `1` + strings.Repeat("}", maxDepth) + `}`,
	`{"a":` + strings.Repeat("[", maxDepth) + `1`,
	`{"x":[1],"a":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `} x`,
}

// TestDecodeMatchesOracle runs the corpus through both decoders and the
// oracle without the fuzzer, so tier-1 and -race cover it.
func TestDecodeMatchesOracle(t *testing.T) {
	for _, text := range decodeCorpus {
		checkDecode(t, []byte(text))
	}
}

// TestDecodeInPlace: like the oracle, the decoders store into what the
// value already holds — a caller gets a clean decode from a zero value.
func TestDecodeInPlace(t *testing.T) {
	for _, text := range []string{`{"budget":5}`, `{"x":[null,9]}`, `{"x":[]}`, `null`, `{}`} {
		got := &ClassifyRequest{X: []float64{1, 2, 3}, Budget: 7, Scores: true}
		want := &ClassifyRequest{X: []float64{1, 2, 3}, Budget: 7, Scores: true}
		if err := DecodeLine([]byte(text), got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(text), want); err != nil {
			t.Fatal(err)
		}
		if !same(got, want) {
			t.Fatalf("%s over a held value: %+v, oracle %+v", text, got, want)
		}
	}
}

// TestFoldIntoASCII pins the fact foldEqual rests on: under the simple
// case folding encoding/json matches keys with, the only runes outside
// ASCII that fold to an ASCII letter are U+017F and U+212A.
func TestFoldIntoASCII(t *testing.T) {
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		least := r
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			least = min(least, f)
		}
		if (least < 0x80) != (r == 0x17F || r == 0x212A) {
			t.Fatalf("U+%04X folds to U+%04X", r, least)
		}
	}
}

// checkAppend holds one encoder to the oracle. A value the oracle
// refuses is one with a non-finite float outside a ScoreList; there the
// encoder must still write a document the oracle reads.
func checkAppend(t *testing.T, v Appender) {
	t.Helper()
	got := v.AppendJSON([]byte("prefix"))
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("%+v: AppendJSON dropped what the buffer held: %q", v, got)
	}
	got = got[len("prefix"):]
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		if !json.Valid(got) || !bytes.Contains(got, []byte("null")) {
			t.Fatalf("%+v: oracle refuses (%v), AppendJSON wrote %q", v, err, got)
		}
		return
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%+v:\nAppendJSON %q\noracle     %q", v, got, want.Bytes())
	}
}

// hardFloats cross every branch of the float format: both signs of zero,
// the two switches between positional and exponent form, exponents of
// one and two digits, subnormals, the extremes and the non-finite.
var hardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 100, 1e-6, 9.99999e-7, 1e-7, 1.5e-9, 1e-10, 1e-100,
	1e20, 123456789012345678901, 1e21, 1.5e21, 1e22, 1e100, 5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, float64(1 << 53), 300, -1234.5678,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// hardStrings cross every branch of the string escape.
var hardStrings = []string{
	"", "plain", "bad request line: wire: expected a number at offset 7", `quote " backslash \ slash /`,
	"<script>&amp;</script>", "ctl \x00\x01\x1f\b\f\n\r\t\x7f", "caf\u00e9 \u65e5\u672c \U0001f600",
	"sep \u2028 \u2029 \u2027 \u202a", "bad \xff\xfe\xc0\x80 \xed\xa0\x80 utf8", "\xe2\x80", "\ufffd",
}

// TestAppendMatchesOracle is the table half of the encoder contract;
// the fuzz targets below are the other.
func TestAppendMatchesOracle(t *testing.T) {
	for _, f := range hardFloats {
		for _, x := range [][]float64{nil, {}, {f}, {f, 0.5, f}} {
			checkAppend(t, ClassifyRequest{X: x, Budget: -1, Scores: true})
			checkAppend(t, InsertRequest{X: x, Label: 2})
			checkAppend(t, ClusterRequest{X: x, Budget: 8})
			checkAppend(t, Result{Label: 1, Scores: x, Weight: f, Labels: []int{0, 1, 2}})
			checkAppend(t, MicroClusterList{Count: 1, MicroClusters: []MicroClusterJSON{{Weight: f, Mean: x, Radius: f}}})
		}
	}
	for _, labels := range [][]int{nil, {}, {7}, {-1, 0, 1 << 40}} {
		checkAppend(t, Result{Label: math.MinInt64, Requested: math.MaxInt64, Degraded: true, Labels: labels})
		checkAppend(t, ResultLine{Result: Result{Labels: labels, Scores: ScoreList{}}})
	}
	for _, s := range hardStrings {
		checkAppend(t, Error{Error: s})
		checkAppend(t, ResultLine{Error: s})
		checkAppend(t, ResultLine{Result: Result{Label: 3, Scores: ScoreList{-1}, Weight: 2}, Error: s})
		checkAppend(t, ClusterLine{Error: s})
	}
	checkAppend(t, ClusterResult{Shard: 3, Requested: 8, Granted: 4, NodesRead: 5, Parked: true, Degraded: true})
	checkAppend(t, ClusterLine{ClusterResult: ClusterResult{Shard: 1}})
	checkAppend(t, InsertAck{OK: true})
	checkAppend(t, InsertAck{Observations: 53, OK: true})
	checkAppend(t, InsertAck{})
	checkAppend(t, MicroClusterList{})
	checkAppend(t, MicroClusterList{Count: 3, MicroClusters: []MicroClusterJSON{}})
	checkAppend(t, MicroClusterList{Count: 2, MicroClusters: make([]MicroClusterJSON, 2)})
	mcs := []MicroClusterJSON{{1, []float64{2}, 3}, {4, nil, 5}}
	got := AppendMicroClusters(nil, len(mcs), func(i int) MicroClusterJSON { return mcs[i] })
	if want := (MicroClusterList{Count: 2, MicroClusters: mcs}).AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendMicroClusters %q, the list's own form %q", got, want)
	}
}

// TestRoundTrip: what one side of the wire appends the other decodes to
// the same value — the proxy's merge and the load generator's scoring
// rest on it, floats to the bit.
func TestRoundTrip(t *testing.T) {
	res := Result{Label: 2, Requested: 9, Granted: 4, NodesRead: 4, Degraded: true,
		Scores: ScoreList{-0.1, math.Inf(-1), -1e-300, 5e-324}, Weight: 1.0 / 3, Labels: []int{0, 1, 2, 3}}
	var back Result
	if err := DecodeLine(res.AppendJSON(nil), &back); err != nil || !same(&back, &res) {
		t.Fatalf("Result came back %+v (%v), sent %+v", back, err, res)
	}
	req := ClassifyRequest{X: []float64{0.1, -2.5e-8, 1e21}, Budget: -1, Scores: true, Literal: true}
	var reqBack ClassifyRequest
	if err := DecodeBody(req.AppendJSON(nil), &reqBack); err != nil || !same(&reqBack, &req) {
		t.Fatalf("ClassifyRequest came back %+v (%v), sent %+v", reqBack, err, req)
	}
}

// TestCodecAllocs bounds what the hot directions cost: appending into a
// buffer with room allocates nothing, a request line only its point.
func TestCodecAllocs(t *testing.T) {
	line := []byte(`{"x":[0.123456789,0.987654321],"budget":8,"label":0}`)
	buf := make([]byte, 0, 1024)
	res := Result{Label: 1, Requested: 8, Granted: 8, NodesRead: 8, Scores: ScoreList{-1.25, -3.5}, Weight: 10, Labels: []int{0, 1}}
	var req ClusterRequest
	for name, tc := range map[string]struct {
		max float64
		run func()
	}{
		"DecodeLine":        {1, func() { req = ClusterRequest{}; _ = DecodeLine(line, &req) }},
		"Result.AppendJSON": {0, func() { buf = res.AppendJSON(buf[:0]) }},
		"ClusterResult":     {0, func() { buf = ClusterResult{Shard: 1, Granted: 8}.AppendJSON(buf[:0]) }},
		"ClusterLine error": {0, func() { buf = ClusterLine{Error: "bad request line"}.AppendJSON(buf[:0]) }},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s: %.0f allocations per run, want at most %.0f", name, got, tc.max)
		}
	}
}
