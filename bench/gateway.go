package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// shutdownTimeout bounds the HTTP server's graceful shutdown.
const shutdownTimeout = 2 * time.Second

// clientCount is the closed-loop connection count: min(nproc, 4).
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// harness is a gateway listening on a loopback port plus the HTTP client
// that loads it, all inside this process.
type harness struct {
	e      *env
	gw     *gateway
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	tp     *http.Transport
	client *http.Client
	addr   string
	bodies [][]byte // per document: the POST /v1/generate body
}

// generateBody is the subset of the gateway's request the benchmark sends.
type generateBody struct {
	GrammarID string `json:"grammar_id"`
	Prompt    string `json:"prompt"`
	Prefix    string `json:"prefix,omitempty"`
	MaxTokens int    `json:"max_tokens"`
	Seed      int64  `json:"seed"`
	Stream    bool   `json:"stream"`
}

// startHarness builds a gateway over e's engine and replay model and starts
// serving it on 127.0.0.1:0.
func startHarness(e *env, traced bool) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		e:      e,
		gw:     newGateway(e.eng, e.model, e.w.gpuStep, traced),
		served: make(chan struct{}),
		addr:   ln.Addr().String(),
	}
	h.srv = &http.Server{Handler: h.gw}
	go func() {
		defer close(h.served)
		h.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	c := clientCount()
	h.tp = &http.Transport{MaxIdleConns: c, MaxIdleConnsPerHost: c, DisableCompression: true}
	h.client = &http.Client{Transport: h.tp}
	for di, doc := range e.tr.docs {
		body, err := json.Marshal(generateBody{
			GrammarID: e.cgs[doc.grammar].ID(),
			Prompt:    strconv.Itoa(di),
			Prefix:    doc.prefix,
			MaxTokens: maxRequestTokens,
			Seed:      1,
			Stream:    true,
		})
		if err != nil {
			h.stop()
			return nil, err
		}
		h.bodies = append(h.bodies, body)
	}
	return h, nil
}

// stop is the shutdown path: drop the client's idle connections (a
// connection the transport dialled but never used would otherwise hold the
// drain until its timeout), drain the HTTP server under a timeout and close
// it hard if the drain times out, stop the gateway's decode loop, and wait
// for the serve goroutine.
func (h *harness) stop() {
	h.tp.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	if err := h.srv.Shutdown(ctx); err != nil {
		h.srv.Close()
	}
	cancel()
	h.gw.Close()
	<-h.served
}

// sseEvent is either a text chunk or the final summary event.
type sseEvent struct {
	Text         string `json:"text"`
	Tokens       int    `json:"tokens"`
	FinishReason string `json:"finish_reason"`
	Done         bool   `json:"done"`
}

// clientState is one closed-loop client's reusable buffers and results.
type clientState struct {
	res  passResult
	itl  dist // gaps between consecutive generated events (when wanted)
	rec  *recorder
	rd   *bufio.Reader
	text bytes.Buffer
}

func newClientReader() *bufio.Reader { return bufio.NewReaderSize(nil, 16<<10) }

var dataPrefix = []byte("data: ")

// do issues one streaming request for document di and checks it: status
// 200, finish_reason "stop", concatenated text equal to the document. Times
// are taken at the request write, at every generated event, and at the end
// of the stream; the echo of a forced prefix is not a generated event. Time
// per output token divides first-to-last event by the sampled tokens the
// summary reports, so jump-forward chunks do not pass for tokens.
func (h *harness) do(c *clientState, di int, wantITL bool) {
	doc := &h.e.tr.docs[di]
	c.res.requests++
	var reqSpan, part int32 = -1, -1
	traced := c.rec != nil && c.rec.room(3)
	if traced {
		reqSpan = c.rec.begin(spRequest, -1, int32(di))
		part = c.rec.begin(spTTFT, reqSpan, int32(di))
	}
	t0 := time.Now()
	resp, err := h.client.Post("http://"+h.addr+"/v1/generate", "application/json", bytes.NewReader(h.bodies[di]))
	if err != nil {
		c.res.failed++
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		c.res.failed++
		return
	}
	c.rd.Reset(resp.Body)
	c.text.Reset()
	var tFirst, tLast time.Time
	var final sseEvent
	chunks, echoed := 0, doc.prefix == ""
	for {
		line, err := c.rd.ReadSlice('\n')
		if err != nil {
			break
		}
		if !bytes.HasPrefix(line, dataPrefix) {
			continue
		}
		payload := bytes.TrimSpace(line[len(dataPrefix):])
		if bytes.Equal(payload, []byte("[DONE]")) {
			break
		}
		var ev sseEvent
		if json.Unmarshal(payload, &ev) != nil {
			break
		}
		if ev.Done {
			final = ev
			continue
		}
		c.text.WriteString(ev.Text)
		if !echoed {
			echoed = true
			continue
		}
		now := time.Now()
		if chunks == 0 {
			tFirst = now
			if traced {
				c.rec.end(part)
				part = c.rec.begin(spStream, reqSpan, int32(di))
			}
		} else if wantITL {
			c.itl.add(float64(now.Sub(tLast)))
		}
		tLast = now
		chunks++
	}
	tEnd := time.Now()
	if traced {
		c.rec.end(part)
		c.rec.end(reqSpan)
	}
	if !final.Done || final.FinishReason != "stop" || chunks == 0 || c.text.String() != doc.text {
		c.res.failed++
		return
	}
	c.res.tokens += int64(final.Tokens)
	c.res.observe(t0, tFirst, tLast, tEnd, final.Tokens)
}

// runGateway is the gateway workloads' timed pass: clientCount() closed-loop
// keep-alive connections take the next document of the request order until d
// has passed. With recs, each client also records client-side spans and the
// gaps between events.
func (h *harness) runGateway(d time.Duration, recs []*recorder) (*passResult, *dist) {
	n := clientCount()
	clients := make([]*clientState, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		c := &clientState{rd: newClientReader()}
		if recs != nil {
			c.rec = recs[i]
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				k := int(next.Add(1) - 1)
				h.do(c, h.e.tr.order[k%len(h.e.tr.order)], recs != nil)
			}
		}()
	}
	wg.Wait()
	res := &passResult{wall: time.Since(start)}
	itl := &dist{}
	for _, c := range clients {
		res.merge(&c.res)
		itl.merge(&c.itl)
	}
	return res, itl
}

// runHandler calls the gateway's ServeHTTP directly with a recorder — no
// TCP, no net/http server — from one goroutine for d, and returns the
// per-request handler times.
func (h *harness) runHandler(d time.Duration) (*dist, int) {
	out := &dist{}
	failed := 0
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		di := h.e.tr.order[k%len(h.e.tr.order)]
		req := httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(h.bodies[di]))
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.gw.ServeHTTP(w, req)
		out.add(float64(time.Since(t0)))
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"finish_reason":"stop"`)) {
			failed++
		}
	}
	return out, failed
}

// scrape GETs path from the gateway over HTTP.
func (h *harness) scrape(path string) ([]byte, error) {
	resp, err := h.client.Get("http://" + h.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
