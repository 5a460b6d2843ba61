package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
)

// liveServer is a serve.Server behind a loopback HTTP listener, stopped
// with Close.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan struct{}
}

func startServer(cfg serve.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	ls := &liveServer{
		srv:  serve.New(cfg),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	ls.http = &http.Server{Handler: ls.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(ls.done)
		_ = ls.http.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return ls, nil
}

// Close stops the listener, drains the job workers and waits for both.
func (ls *liveServer) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.http.Shutdown(ctx)
	<-ls.done
	_ = ls.srv.Shutdown(ctx)
}

// client is a typed client of the job API. Each client owns exactly one
// connection, so an open-loop generator never borrows another's socket.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) Close() { c.hc.CloseIdleConnections() }

// httpStatusError is a response outside the expected status codes.
type httpStatusError struct {
	Code int
	Body string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Code, e.Body) }

// do sends one request and decodes a JSON response into out; it returns
// the number of body bytes read. Any status outside ok is an error.
func (c *client) do(method, path string, body any, out any, ok ...int) (int, error) {
	n, _, err := c.doTimed(method, path, body, out, ok...)
	return n, err
}

// doTimed is do that also returns when the last byte of the response body
// arrived, before it is decoded.
func (c *client) doTimed(method, path string, body any, out any, ok ...int) (int, time.Time, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, time.Time{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, time.Time{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Time{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	last := time.Now()
	if err != nil {
		return len(data), last, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	good := false
	for _, code := range ok {
		good = good || resp.StatusCode == code
	}
	if !good {
		return len(data), last, &httpStatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), last, fmt.Errorf("%s %s: decoding body: %w", method, path, err)
		}
	}
	return len(data), last, nil
}

// jobRequest is the body of POST /v1/jobs.
type jobRequest struct {
	Dataset   string  `json:"dataset"`
	Algorithm string  `json:"algorithm"`
	K         int     `json:"k"`
	T         float64 `json:"t"`
	NoCache   bool    `json:"no_cache,omitempty"`
	Cold      bool    `json:"cold,omitempty"`
}

// jobStatus is the job record of GET /v1/jobs/{id}.
type jobStatus struct {
	ID        uint64    `json:"id"`
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished"`
	RunMs     float64   `json:"run_ms"`
	Error     string    `json:"error"`
	ErrorKind string    `json:"error_kind"`
}

// queueWaitMs is the time the job waited before running.
func (s jobStatus) queueWaitMs() float64 {
	if s.Finished.IsZero() {
		return 0
	}
	return float64(s.Finished.Sub(s.Submitted))/float64(time.Millisecond) - s.RunMs
}

// jobResult is the document of GET /v1/jobs/{id}/result.
type jobResult struct {
	Dataset    string  `json:"dataset"`
	Epoch      int     `json:"epoch"`
	Algorithm  string  `json:"algorithm"`
	K          int     `json:"k"`
	T          float64 `json:"t"`
	Cached     bool    `json:"cached"`
	SSE        float64 `json:"sse"`
	ReleaseCSV string  `json:"release_csv"`
}

// jobOutcome is one job driven to completion: submit, poll, fetch.
type jobOutcome struct {
	Status      jobStatus
	Result      jobResult
	ResultBytes int
	Polls       int
	SubmitMs    float64
	FetchMs     float64
	// LastByte is when the last byte of the release arrived.
	LastByte time.Time
	// FetchSpan is the span of the result fetch, -1 when untraced.
	FetchSpan int
}

// runJob submits a job, polls it until it finishes and fetches its
// release. Each HTTP call is a child span of parent.
func (c *client) runJob(tr *Tracer, parent int, req int64, jr jobRequest) (jobOutcome, error) {
	out := jobOutcome{FetchSpan: -1}
	t0 := time.Now()
	sp := tr.Begin("serve.submit", parent, req)
	_, err := c.do(http.MethodPost, "/v1/jobs", jr, &out.Status, http.StatusOK, http.StatusAccepted)
	tr.End(sp)
	out.SubmitMs = msSince(t0)
	if err != nil {
		return out, fmt.Errorf("submitting %s k=%d t=%g: %w", jr.Algorithm, jr.K, jr.T, err)
	}
	id := out.Status.ID
	start := time.Now()
	for out.Status.State == "queued" || out.Status.State == "running" {
		// Poll at a twentieth of the time waited so far, between 1 and
		// 20 ms: the poll adds under 5% to a job's measured latency
		// without flooding the two CPUs the job itself runs on.
		wait := min(max(time.Since(start)/20, time.Millisecond), 20*time.Millisecond)
		time.Sleep(wait)
		sp := tr.Begin("serve.poll", parent, req)
		_, err := c.do(http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil, &out.Status, http.StatusOK)
		tr.End(sp)
		out.Polls++
		if err != nil {
			return out, fmt.Errorf("polling job %d: %w", id, err)
		}
	}
	if out.Status.State != "done" {
		return out, fmt.Errorf("job %d finished %s (%s): %s", id, out.Status.State, out.Status.ErrorKind, out.Status.Error)
	}
	t1 := time.Now()
	sp = tr.Begin("serve.result_fetch", parent, req)
	n, last, err := c.doTimed(http.MethodGet, fmt.Sprintf("/v1/jobs/%d/result", id), nil, &out.Result, http.StatusOK)
	tr.End(sp)
	out.FetchSpan = sp
	out.LastByte = last
	out.FetchMs = float64(last.Sub(t1)) / float64(time.Millisecond)
	out.ResultBytes = n
	if err != nil {
		return out, fmt.Errorf("fetching job %d: %w", id, err)
	}
	return out, nil
}

// epochAck is the acknowledgement of an append or delete epoch.
type epochAck struct {
	Rows  int `json:"rows"`
	Epoch int `json:"epoch"`
}

func (c *client) appendRows(name string, rows [][]any) (epochAck, error) {
	var ack epochAck
	_, err := c.do(http.MethodPost, "/v1/datasets/"+name+"/rows", map[string]any{"rows": rows}, &ack, http.StatusOK)
	return ack, err
}

func (c *client) deleteRows(name string, ids []int) (epochAck, error) {
	var ack epochAck
	_, err := c.do(http.MethodDelete, "/v1/datasets/"+name+"/rows", map[string]any{"rows": ids}, &ack, http.StatusOK)
	return ack, err
}

// datasetDoc is one entry of GET /v1/datasets.
type datasetDoc struct {
	Name      string `json:"name"`
	Rows      int    `json:"rows"`
	Epoch     int    `json:"epoch"`
	TableHash string `json:"table_hash"`
}

func (c *client) datasets() ([]datasetDoc, error) {
	var doc struct {
		Datasets []datasetDoc `json:"datasets"`
	}
	_, err := c.do(http.MethodGet, "/v1/datasets", nil, &doc, http.StatusOK)
	return doc.Datasets, err
}

func (c *client) removeDataset(name string) error {
	_, err := c.do(http.MethodDelete, "/v1/datasets/"+name, nil, nil, http.StatusOK)
	return err
}

func (c *client) metrics() (serve.MetricsSnapshot, error) {
	var m serve.MetricsSnapshot
	_, err := c.do(http.MethodGet, "/metrics", nil, &m, http.StatusOK)
	return m, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
