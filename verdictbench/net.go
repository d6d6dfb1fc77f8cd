package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync/atomic"
	"time"

	"bcnphase/internal/serve"
)

// Headers carrying the benchmark's trace context from its client to its
// handler wrapper. The program ignores them.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

// jobServer is one serve.Server behind a net/http server on a loopback
// listener.
type jobServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	url  string
}

// startJobServer starts a job server; wrap, when non-nil, wraps its
// handler (the benchmark's tracing tap).
func startJobServer(cfg serve.Config, wrap func(http.Handler) http.Handler) (*jobServer, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	js := &jobServer{srv: srv, hs: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { js.done <- js.hs.Serve(ln) }()
	return js, nil
}

// close stops the listener, closes every connection and waits for the
// serve loop to return.
func (js *jobServer) close() {
	js.hs.Close()
	<-js.done
	js.srv.Close()
}

// reply is one finished request as the client saw it.
type reply struct {
	status int
	cache  string // X-Cache
	body   []byte
	lat    time.Duration // request write to last body byte read
	err    error
}

// jobClient is one closed-loop caller holding a single keep-alive
// connection. It reads every body to EOF, and counts the connections it
// opens with httptrace, so a request path that stops reusing
// connections (an unread body, a server closing them) shows up in the
// keep-alive guard instead of silently timing connection set-up.
type jobClient struct {
	url       string
	transport *http.Transport
	client    *http.Client
	trace     *httptrace.ClientTrace
	conns     atomic.Int64
	reqBytes  int64
	respBytes int64
}

func newJobClient(url string) *jobClient {
	t := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true, IdleConnTimeout: time.Minute}
	c := &jobClient{url: url, transport: t, client: &http.Client{Transport: t}}
	c.trace = &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			c.conns.Add(1)
		}
	}}
	return c
}

// post submits one job spec. With a tracer it records the client span
// and sends its IDs to the server-side tap.
func (c *jobClient) post(ctx context.Context, body []byte, tr *tracer, op uint64) reply {
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, c.trace),
		http.MethodPost, c.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	id, s := tr.id(), tr.now()
	if tr != nil {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{err: err, lat: time.Since(t0)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	tr.record(id, 0, op, "client.job", s)
	c.reqBytes += int64(len(body))
	c.respBytes += int64(len(raw))
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: raw, lat: lat, err: err}
}

func (c *jobClient) close() { c.transport.CloseIdleConnections() }

// keepAliveGuard fails when the clients together opened more
// connections than there are clients.
func keepAliveGuard(clients []*jobClient) error {
	var opened int64
	for _, c := range clients {
		opened += c.conns.Load()
	}
	if opened > int64(len(clients)) {
		return fmt.Errorf("keep-alive guard: %d connections opened by %d clients", opened, len(clients))
	}
	return nil
}

// serverTap wraps a job server's handler to record one span per job
// request. The parent span and operation come from the benchmark's
// headers when its own client sent the request, or else from the
// current operation (the cluster coordinator runs one grid at a time).
type serverTap struct {
	tr        *tracer
	name      string
	h         http.Handler
	curOp     *atomic.Uint64
	curParent *atomic.Uint64
	misses    atomic.Int64 // job replies computed rather than served from cache
	busy      atomic.Int64 // ns spent in job requests
	capture   chan []byte  // sampled job replies (non-blocking sends)
}

func (t *serverTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
		t.h.ServeHTTP(w, r)
		return
	}
	op, parent := uint64(0), uint64(0)
	if v := r.Header.Get(opHeader); v != "" {
		op, _ = strconv.ParseUint(v, 10, 64)
		parent, _ = strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	} else if t.curOp != nil {
		op, parent = t.curOp.Load(), t.curParent.Load()
	}
	id, s := t.tr.id(), t.tr.now()
	began := time.Now()
	var rec *teeWriter
	if t.capture != nil && len(t.capture) < cap(t.capture) {
		rec = &teeWriter{ResponseWriter: w}
		w = rec
	}
	t.h.ServeHTTP(w, r)
	t.busy.Add(int64(time.Since(began)))
	t.tr.record(id, parent, op, t.name, s)
	if w.Header().Get("X-Cache") == "miss" {
		t.misses.Add(1)
	}
	if rec != nil {
		select {
		case t.capture <- rec.buf.Bytes():
		default:
		}
	}
}

// teeWriter keeps a copy of the body it forwards.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}
