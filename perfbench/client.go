package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// endpoint names the handler routes the workloads use.
type endpoint int

const (
	epPrepare endpoint = iota
	epSample
	epUnrank
	epExecute
	epFeedbackApply
	endpointCount
)

var endpointPaths = [endpointCount]string{"/prepare", "/sample", "/unrank", "/execute", "/feedback/apply"}

// request is one pre-generated request: the route, the JSON body (often
// shared with other requests of the same variant), and what the checker
// needs to verify the response.
type request struct {
	ep    endpoint
	body  []byte
	query int      // index into the workload's oracle queries
	class int      // request class for latency-mode reports
	ranks []string // /unrank: the plan numbers sent
	seed  int64    // /sample: the sampler seed sent
}

// checker verifies responses. It may keep state across requests (the
// feedback epoch) and assigns the class a response is reported under.
type checker interface {
	check(r *request, status int, body []byte) (class int, err error)
	counts() *tally
}

// client calls an http.Handler directly: the real handler, no socket.
// One client serves one goroutine; requests run strictly one at a time.
type client struct {
	h    http.Handler
	tmpl [endpointCount]*http.Request
	rec  recorder
	body bodyReader
}

func newClient(h http.Handler) *client {
	c := &client{h: h, rec: recorder{hdr: make(http.Header)}}
	for ep, path := range endpointPaths {
		req, err := http.NewRequest(http.MethodPost, "http://planserved"+path, nil)
		if err != nil {
			panic(err) // constant, well-formed URLs
		}
		c.tmpl[ep] = req
	}
	return c
}

// call sends r, times the handler, and checks the response. The latency
// covers ServeHTTP only; the check runs after the clock stops.
func (c *client) call(r *request, chk checker) (lat time.Duration, class int, err error) {
	c.rec.reset()
	c.body.Reset(r.body)
	req := *c.tmpl[r.ep]
	req.Body = &c.body
	req.ContentLength = int64(len(r.body))
	start := time.Now()
	c.h.ServeHTTP(&c.rec, &req)
	lat = time.Since(start)
	class, err = chk.check(r, c.rec.code(), c.rec.body.Bytes())
	return lat, class, err
}

// release drops the client's request and response buffers.
func (c *client) release() {
	c.body.Reset(nil)
	c.rec.body = bytes.Buffer{}
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *recorder) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *recorder) reset() {
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// statusErr reports a non-200 response with its body.
func statusErr(status int, body []byte) error {
	return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
}
