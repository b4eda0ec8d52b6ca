package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is the benchmark's own HTTP/1.1 client over one keep-alive
// connection: it writes pre-encoded requests and reads whole responses,
// so what it costs is small and does not move when product code does.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and reads the response to its last byte. The
// returned body is valid until the next call.
func (c *conn) do(wire []byte) (status int, body []byte, err error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("status line %q: %v", line, err)
	}
	length, chunked := 0, false
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("content length %q: %v", value, err)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	if !chunked {
		return status, c.body, c.read(length)
	}
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		size, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
		if err != nil {
			return 0, nil, fmt.Errorf("chunk size %q: %v", line, err)
		}
		if err := c.read(int(size)); err != nil {
			return 0, nil, err
		}
		if _, err := c.br.Discard(2); err != nil { // the CRLF that ends a chunk, or the empty trailer
			return 0, nil, err
		}
		if size == 0 {
			return status, c.body, nil
		}
	}
}

// read appends the next n bytes of the stream to the body.
func (c *conn) read(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		c.body = append(make([]byte, 0, 2*(at+n)), c.body...)
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

// parseAnswer decodes a 200 response body of the given request kind. An
// undecodable body or one that carries an error field is a failure.
func parseAnswer(r *request, body []byte) (answer, error) {
	a := noAnswer
	switch r.kind {
	case kindClassify:
		var v struct {
			Label     *int   `json:"label"`
			Granted   int    `json:"granted"`
			NodesRead int    `json:"nodes_read"`
			Error     string `json:"error"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return a, err
		}
		if v.Error != "" || v.Label == nil {
			return a, fmt.Errorf("classify answered %q", body)
		}
		return answer{label: *v.Label, granted: v.Granted, nodesRead: v.NodesRead}, nil
	case kindInsert:
		var v struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return a, err
		}
		if !v.OK {
			return a, fmt.Errorf("insert answered %q", body)
		}
	case kindCluster:
		a.granted = 0
		lines := 0
		for len(body) > 0 {
			line, rest, _ := bytes.Cut(body, []byte("\n"))
			body = rest
			var v struct {
				Granted *int   `json:"granted"`
				Error   string `json:"error"`
			}
			if err := json.Unmarshal(line, &v); err != nil {
				return a, err
			}
			if v.Error != "" || v.Granted == nil {
				return a, fmt.Errorf("cluster line answered %q", line)
			}
			a.granted += *v.Granted
			lines++
		}
		if lines != r.ops {
			return a, fmt.Errorf("cluster batch of %d lines got %d answers", r.ops, lines)
		}
	case kindMicro:
		var v struct {
			Count *int   `json:"count"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return a, err
		}
		if v.Error != "" || v.Count == nil {
			return a, fmt.Errorf("microclusters answered %.80q", body)
		}
		a.count = *v.Count
	}
	return a, nil
}

// exchange is one request over the wire: the latency from just before
// the write to the last byte of the body, and the decoded answer.
func (c *conn) exchange(r *request) (lat time.Duration, a answer, err error) {
	t0 := time.Now()
	status, body, err := c.do(r.wire)
	lat = time.Since(t0)
	if err != nil {
		return lat, noAnswer, err
	}
	if status != http.StatusOK {
		return lat, noAnswer, fmt.Errorf("status %d: %.120q", status, body)
	}
	a, err = parseAnswer(r, body)
	return lat, a, err
}

// listen serves h on a loopback port until stop is called; stop waits
// for the server's goroutines.
func listen(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // always returns ErrServerClosed after Close
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// ticker runs a maintenance tick each time the objects written cross a
// multiple of every.
type ticker struct {
	every   int64
	written atomic.Int64
	tick    func()
}

func (t *ticker) wrote(ops int) {
	if t == nil || t.every == 0 {
		return
	}
	n := t.written.Add(int64(ops))
	if n/t.every != (n-int64(ops))/t.every {
		t.tick()
	}
}

// result is what the closed loop recorded for one request.
type result struct {
	lat time.Duration
	a   answer
	err error
}

// closedLoop sends seq over the given connections, each client taking
// the next unsent request as soon as its previous one is answered, and
// returns one result per request and the wall time of the whole.
func closedLoop(conns []*conn, seq []*request, tk *ticker, out []result) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				r := seq[i]
				res := &out[i]
				res.lat, res.a, res.err = c.exchange(r)
				if res.err == nil && r.kind.write() {
					tk.wrote(r.ops)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// -------------------------------------------------------------- numbers

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.999999)
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are Python's statistics.quantiles(v, n=4): the cut points
// the driver takes a metric's spread from.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return median(v), median(v)
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// The reference: this sandbox's speed moves by a factor of up to 1.7, for
// seconds or for minutes at a time (a neighbour on the same cores), which
// no number of rounds averages out. A fixed compute loop of the
// benchmark's own, timed once a millisecond on a goroutine of its own for
// as long as a round lasts, moves with it (correlation 0.8–0.95 with
// every timing, on every workload). So every timing is reported scaled to
// a machine on which the loop takes refNominalNs, by the median of the
// loop's times over exactly the window the timing was taken in. Between
// commits the loop is the same code and a thousandth of the load, so the
// scale cancels; between minutes it removes most of the machine.
const (
	// refNominalNs is what one turn of the loop takes on this sandbox
	// when it is quiet.
	refNominalNs = 5600
	// refMinSamples is how many turns a window must hold for its median
	// to be used; a shorter window is scaled by the whole recording.
	refMinSamples = 20
)

var refSink atomic.Int64

// sampler is a running recording of the reference loop.
type sampler struct {
	quit, done chan struct{}
	once       sync.Once
	at         []time.Time
	ns         []float64
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		data := make([]float64, 1024)
		for i := range data {
			data[i] = float64(i%977) * 1e-3
		}
		for {
			select {
			case <-s.quit:
				return
			default:
			}
			t0 := time.Now()
			var acc float64
			for k := 0; k < 8; k++ {
				for _, x := range data {
					d := x - 0.5
					acc += d * d * 1.0001
				}
			}
			refSink.Add(int64(acc)) // keeps the loop from being optimised away
			s.at = append(s.at, t0)
			s.ns = append(s.ns, float64(time.Since(t0).Nanoseconds()))
			time.Sleep(time.Millisecond)
		}
	}()
	return s
}

// stop ends the recording; scale may be called only after it.
func (s *sampler) stop() {
	s.once.Do(func() { close(s.quit) })
	<-s.done
}

// scale is the factor that takes a timing measured between from and to to
// the reference machine.
func (s *sampler) scale(from, to time.Time) float64 {
	var v []float64
	for i, t := range s.at {
		if !t.Before(from) && !t.After(to) {
			v = append(v, s.ns[i])
		}
	}
	if len(v) < refMinSamples {
		v = s.ns
	}
	return refNominalNs / median(v)
}
