package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"gminer/internal/server"
)

// The load generator's fixed shape: at most clientConns connections to the
// daemon, and a job's status polled every pollInterval until it settles.
const (
	clientConns  = 2
	pollInterval = time.Millisecond
)

// client drives the daemon's HTTP API as an outside user would: submit,
// poll the status, read the result. In a traced run it also records a span
// and a timing per HTTP call.
type client struct {
	base string
	http *http.Client
	rec  *recorder

	mu     sync.Mutex
	callMS map[string][]float64 // traced runs: every call's time, by span name
}

func newClient(addr string, rec *recorder) *client {
	return &client{
		base: "http://" + addr,
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
			Timeout:   2 * time.Minute,
		},
		rec:    rec,
		callMS: map[string][]float64{},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// call makes one request and decodes a 2xx JSON body into out. Any other
// status is an error carrying the daemon's message.
func (c *client) call(span string, parent int, job, method, path string, body []byte, out any) error {
	id := c.rec.begin(span, parent, job)
	start := time.Now()
	err := c.roundTrip(method, path, body, out)
	if c.rec != nil {
		ms := msSince(start)
		c.rec.end(id)
		c.mu.Lock()
		c.callMS[span] = append(c.callMS[span], ms)
		c.mu.Unlock()
	}
	return err
}

func (c *client) roundTrip(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(buf))
	}
	if err := json.Unmarshal(buf, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// served is what one job submitted over HTTP came back with.
type served struct {
	app    string
	status server.JobStatus // the last status seen
	result server.JobResult
	err    error // refused, failed, shed, or unreachable
}

// runJob submits req, polls until the job leaves the queue and the
// cluster, and reads its result.
func (c *client) runJob(req server.JobRequest, parent int) served {
	out := served{app: req.App}
	body, err := json.Marshal(req)
	if err != nil {
		out.err = err
		return out
	}
	root := c.rec.begin("server.http_job", parent, "")
	defer c.rec.end(root)
	if out.err = c.call("server.submit", root, "", "POST", "/jobs", body, &out.status); out.err != nil {
		return out
	}
	id := out.status.ID
	c.rec.tag(root, id)
	for out.status.State == server.StateQueued || out.status.State == server.StateRunning {
		time.Sleep(pollInterval)
		if out.err = c.call("server.status", root, id, "GET", "/jobs/"+id, nil, &out.status); out.err != nil {
			return out
		}
	}
	if out.status.State != server.StateDone {
		out.err = fmt.Errorf("job %s ended %s: %s", id, out.status.State, out.status.Error)
		return out
	}
	out.err = c.call("server.result", root, id, "GET", "/jobs/"+id+"/result", nil, &out.result)
	return out
}

// park submits a standing query and waits until its baseline has run and
// the job is parked on the resident graph.
func (c *client) park(app, id string) error {
	req := server.JobRequest{ID: id}
	req.App, req.Standing = app, true
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var st server.JobStatus
	if err := c.call("server.submit", -1, id, "POST", "/jobs", body, &st); err != nil {
		return err
	}
	for st.State == server.StateQueued || st.State == server.StateRunning {
		time.Sleep(pollInterval)
		if err := c.call("server.status", -1, id, "GET", "/jobs/"+id, nil, &st); err != nil {
			return err
		}
	}
	if st.State != server.StateStanding {
		return fmt.Errorf("standing %s job %s ended %s: %s", app, id, st.State, st.Error)
	}
	return nil
}

// mutate posts one pre-encoded mutation batch; the reply carries every
// standing job's delta for the new epoch.
func (c *client) mutate(body []byte, parent int) (server.MutationResult, error) {
	var res server.MutationResult
	err := c.call("server.mutate", parent, "", "POST", "/graph/mutations", body, &res)
	return res, err
}

// result reads a job's current result document (for a standing job, its
// accumulated match set).
func (c *client) result(id string) (server.JobResult, error) {
	var res server.JobResult
	err := c.call("server.result", -1, id, "GET", "/jobs/"+id+"/result", nil, &res)
	return res, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
