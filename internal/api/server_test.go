package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fabric"
	"repro/internal/registry"
)

// newTestServer spins up the full stack — registry → manager → HTTP —
// over a registry of instant test experiments plus a gate for
// cancellation tests.
func newTestServer(t *testing.T, workers, queueDepth int) (*httptest.Server, *campaign.Manager, func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	reg := registry.New(
		&registry.Experiment{
			Name: "echo", Doc: "test echo", ArtifactKinds: []string{"text"},
			Params: []registry.ParamSpec{{Name: "tag", Kind: registry.StringListKind,
				Default: "a", Enum: []string{"a", "b"}}},
			Run: func(_ context.Context, req registry.Request) (*registry.Result, error) {
				return &registry.Result{
					Text:      fmt.Sprintf("echo seed=%d tag=%s\n", req.Seed, req.Params["tag"]),
					Artifacts: []registry.Artifact{{Name: "echo.pbm", Data: []byte("P4 1 1\n")}},
				}, nil
			},
		},
		&registry.Experiment{
			Name: "gate", Doc: "blocks until released", Slow: true, ArtifactKinds: []string{"text"},
			Run: func(ctx context.Context, _ registry.Request) (*registry.Result, error) {
				select {
				case <-gate:
					return &registry.Result{Text: "opened\n"}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		},
	)
	mgr := campaign.New(campaign.Config{Registry: reg, Workers: workers, QueueDepth: queueDepth})
	ts := httptest.NewServer(New(mgr, reg, nil))
	t.Cleanup(func() {
		release()
		ts.Close()
		_ = mgr.Drain(context.Background())
	})
	return ts, mgr, release
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func pollDone(t *testing.T, base, id string) campaign.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, b := get(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: %d %s", resp.StatusCode, b)
		}
		var st campaign.JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEndToEnd: submit → poll → fetch result, plus the catalog and
// health endpoints.
func TestEndToEnd(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)

	if resp, b := get(t, ts.URL+"/healthz"); resp.StatusCode != 200 || !bytes.Contains(b, []byte("true")) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}

	resp, b := get(t, ts.URL+"/v1/experiments")
	if resp.StatusCode != 200 {
		t.Fatalf("experiments: %d", resp.StatusCode)
	}
	var cat struct {
		Experiments []struct {
			Name   string `json:"name"`
			Params []registry.ParamSpec
		} `json:"experiments"`
	}
	if err := json.Unmarshal(b, &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Experiments) != 2 || cat.Experiments[0].Name != "echo" {
		t.Fatalf("catalog: %s", b)
	}
	if len(cat.Experiments[0].Params) != 1 || cat.Experiments[0].Params[0].Name != "tag" {
		t.Fatalf("catalog params not exposed: %s", b)
	}

	resp, b = post(t, ts.URL+"/v1/jobs", `{"seed":7,"runs":[{"experiment":"echo"},{"experiment":"echo","seed":9,"params":{"tag":"b"}}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st campaign.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	final := pollDone(t, ts.URL, st.ID)
	if final.State != campaign.StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if final.Progress.Done != 2 || final.Progress.Total != 2 {
		t.Fatalf("progress = %+v", final.Progress)
	}

	resp, body := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != 200 {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}
	for _, want := range []string{"echo seed=7 tag=a", "echo seed=9 tag=b", "echo.pbm"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("result missing %q:\n%s", want, body)
		}
	}

	// List contains the job.
	if resp, b := get(t, ts.URL+"/v1/jobs"); resp.StatusCode != 200 || !bytes.Contains(b, []byte(st.ID)) {
		t.Fatalf("list: %d %s", resp.StatusCode, b)
	}
}

// TestCacheHitHTTP: the second identical submission returns a
// byte-identical body, the job is marked cached:true, and the result
// carries X-Cache: hit-mem plus a strong ETag that revalidates to 304.
func TestCacheHitHTTP(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)

	body := `{"runs":[{"experiment":"echo","seed":42}]}`
	resp, b1 := post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", resp.StatusCode, b1)
	}
	var st1 campaign.JobStatus
	_ = json.Unmarshal(b1, &st1)
	if final := pollDone(t, ts.URL, st1.ID); final.Cached {
		t.Fatal("first job marked cached")
	}
	_, r1 := get(t, ts.URL+"/v1/jobs/"+st1.ID+"/result")

	resp, b2 := post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", resp.StatusCode, b2)
	}
	var st2 campaign.JobStatus
	_ = json.Unmarshal(b2, &st2)
	final2 := pollDone(t, ts.URL, st2.ID)
	if !final2.Cached {
		t.Fatal("second job not marked cached:true")
	}
	respR, r2 := get(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if got := respR.Header.Get("X-Cache"); got != "hit-mem" {
		t.Fatalf("X-Cache = %q, want hit-mem", got)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", r1, r2)
	}

	// The strong ETag revalidates: If-None-Match answers 304 with no body.
	etag := respR.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing strong ETag: %q", etag)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st2.ID+"/result", nil)
	req.Header.Set("If-None-Match", etag)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cbody, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusNotModified || len(cbody) != 0 {
		t.Fatalf("If-None-Match: %d with %d body bytes, want 304 empty", cresp.StatusCode, len(cbody))
	}
	if got := cresp.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag = %q, want %q", got, etag)
	}

	// A stale tag misses revalidation and gets the full body again.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st2.ID+"/result", nil)
	req2.Header.Set("If-None-Match", `"deadbeef"`)
	sresp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || !bytes.Equal(sbody, r2) {
		t.Fatalf("stale If-None-Match: %d, body match %v", sresp.StatusCode, bytes.Equal(sbody, r2))
	}
}

// TestCancelHTTP: DELETE mid-run cancels the job and frees the only
// worker for the next submission.
func TestCancelHTTP(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 8)

	resp, b := post(t, ts.URL+"/v1/jobs", `{"runs":[{"experiment":"gate"}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st campaign.JobStatus
	_ = json.Unmarshal(b, &st)

	// Wait until it's actually running, then DELETE.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur := func() campaign.JobStatus {
			_, jb := get(t, ts.URL+"/v1/jobs/"+st.ID)
			var cur campaign.JobStatus
			_ = json.Unmarshal(jb, &cur)
			return cur
		}()
		if cur.State == campaign.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}
	if final := pollDone(t, ts.URL, st.ID); final.State != campaign.StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); resp.StatusCode != http.StatusGone {
		t.Fatalf("result of cancelled job: %d, want 410", resp.StatusCode)
	}

	// Worker is free again: an instant job on the single worker finishes.
	resp, b = post(t, ts.URL+"/v1/jobs", `{"runs":[{"experiment":"echo","seed":1}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit: %d %s", resp.StatusCode, b)
	}
	var st2 campaign.JobStatus
	_ = json.Unmarshal(b, &st2)
	if final := pollDone(t, ts.URL, st2.ID); final.State != campaign.StateDone {
		t.Fatalf("post-cancel job = %s, want done", final.State)
	}
}

// TestQueueFull429: saturating workers + queue turns the next POST into
// a 429.
func TestQueueFull429(t *testing.T) {
	ts, _, release := newTestServer(t, 1, 1)

	body := `{"runs":[{"experiment":"gate"}]}`
	resp, b := post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", resp.StatusCode, b)
	}
	var st campaign.JobStatus
	_ = json.Unmarshal(b, &st)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, jb := get(t, ts.URL+"/v1/jobs/"+st.ID)
		var cur campaign.JobStatus
		_ = json.Unmarshal(jb, &cur)
		if cur.State == campaign.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := post(t, ts.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2 (queued): %d", resp.StatusCode)
	}
	resp, b = post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s, want 429", resp.StatusCode, b)
	}
	release()
}

// TestEventsNDJSON: the events endpoint streams the whole lifecycle as
// one JSON object per line, ending after the terminal event.
func TestEventsNDJSON(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)

	resp, b := post(t, ts.URL+"/v1/jobs", `{"runs":[{"experiment":"echo","seed":3}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st campaign.JobStatus
	_ = json.Unmarshal(b, &st)

	eresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []campaign.Event
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		var ev campaign.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].State != campaign.StateQueued {
		t.Fatalf("first event state = %s", events[0].State)
	}
	last := events[len(events)-1]
	if last.State != campaign.StateDone || last.Progress.Done != 1 {
		t.Fatalf("last event = %+v", last)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d out of order (seq %d)", i, ev.Seq)
		}
	}
}

// TestSubmitWait: wait:true blocks until the job is done and returns the
// terminal status in one round trip.
func TestSubmitWait(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)
	resp, b := post(t, ts.URL+"/v1/jobs", `{"wait":true,"runs":[{"experiment":"echo","seed":11}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit: %d %s", resp.StatusCode, b)
	}
	var st campaign.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != campaign.StateDone {
		t.Fatalf("wait returned state %s", st.State)
	}
}

// TestWaitDisconnectCancels: a wait:true client that disconnects
// mid-job cancels its request-scoped job.
func TestWaitDisconnectCancels(t *testing.T) {
	ts, mgr, _ := newTestServer(t, 1, 8)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"wait":true,"runs":[{"experiment":"gate"}]}`))
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Wait for the job to appear and start running, then drop the client.
	deadline := time.Now().Add(5 * time.Second)
	var id string
	for id == "" {
		for _, st := range mgr.List() {
			if st.State == campaign.StateRunning {
				id = st.ID
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	for time.Now().Before(deadline) {
		st, err := mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			if st.State != campaign.StateCancelled {
				t.Fatalf("state = %s, want cancelled", st.State)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("job never terminated after client disconnect")
}

// TestBadRequests: malformed bodies and unknown names are 4xx.
func TestBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 8)
	for _, body := range []string{
		``,
		`{}`,
		`{"runs":[{"experiment":"nonesuch"}]}`,
		`{"runs":[{"experiment":"echo","params":{"tag":"z"}}]}`,
		`{"runs":[{"experiment":"echo"}],"match":"echo"}`,
		`{"match":"zzz"}`,
		`{"bogus":1}`,
	} {
		resp, _ := post(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q → %d, want 400", body, resp.StatusCode)
		}
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Error("GET unknown job not 404")
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/job-999/result"); resp.StatusCode != http.StatusNotFound {
		t.Error("GET unknown result not 404")
	}
}

// TestSubmitBodyCap: a job body over maxBodyBytes is refused with 413
// before any job exists, and a normal body is still accepted.
func TestSubmitBodyCap(t *testing.T) {
	ts, mgr, _ := newTestServer(t, 1, 8)
	run := `{"experiment":"echo"},`
	body := `{"runs":[` + strings.Repeat(run, maxBodyBytes/len(run)) + `{"experiment":"echo"}]}`
	if resp, _ := post(t, ts.URL+"/v1/jobs", body); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST of a %d-byte runs array → %d, want 413", len(body), resp.StatusCode)
	}
	if jobs := mgr.List(); len(jobs) != 0 {
		t.Fatalf("the oversize body created %d jobs", len(jobs))
	}
	if resp, _ := post(t, ts.URL+"/v1/jobs", `{"runs":[{"experiment":"echo"}]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("normal body → %d, want 202", resp.StatusCode)
	}
}

// echoFailSeed is the seed newSoloFabricServer's echo experiment fails
// on, deterministically.
const echoFailSeed = 13

// newSoloFabricServer builds a server whose fabric is a one-member node
// attached to a manager over a registry of one instant experiment:
// echo, whose output is a pure function of its seed and tag, and whose
// run at echoFailSeed fails, so /v1/fabric/run can answer each of its
// statuses. The manager keeps no store, so a run is served from memory
// or computed.
func newSoloFabricServer(tb testing.TB) (http.Handler, *campaign.Manager) {
	tb.Helper()
	reg := registry.New(&registry.Experiment{
		Name: "echo", Doc: "test echo", ArtifactKinds: []string{"text"},
		Params: []registry.ParamSpec{{Name: "tag", Kind: registry.StringListKind,
			Default: "a", Enum: []string{"a", "b"}}},
		Run: func(_ context.Context, req registry.Request) (*registry.Result, error) {
			if req.Seed == echoFailSeed {
				return nil, fmt.Errorf("echo: seed %d fails", req.Seed)
			}
			return &registry.Result{Text: fmt.Sprintf("echo seed=%d tag=%s\n", req.Seed, req.Params["tag"])}, nil
		},
	})
	node, err := fabric.New(fabric.Config{Self: "solo", Fingerprint: reg.Fingerprint()})
	if err != nil {
		tb.Fatal(err)
	}
	// Few retained jobs and cached results keep a fuzzer's memory
	// bounded.
	mgr := campaign.New(campaign.Config{Registry: reg, Workers: 2, QueueDepth: 8,
		Sweep: node, MemEntries: 1024, JobRetention: 16})
	node.Attach(mgr)
	tb.Cleanup(func() { _ = mgr.Drain(context.Background()) })
	return New(mgr, reg, node), mgr
}

// serve posts body to path on srv and returns the recorded response.
func serve(srv http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestBodyEndsAfterOneValue: a POST body is one JSON value. Whitespace
// may follow it, up to the body cap; anything else, a second value
// included, is answered 400 on both endpoints that take a body, and a
// refused job body creates no job.
func TestBodyEndsAfterOneValue(t *testing.T) {
	srv, mgr := newSoloFabricServer(t)
	for _, ep := range []struct {
		path, body string
		ok         int
	}{
		{"/v1/jobs", `{"runs":[{"experiment":"echo"}]}`, http.StatusAccepted},
		{"/v1/fabric/run", `{"experiment":"echo","seed":1}`, http.StatusOK},
	} {
		for _, tail := range []struct {
			text string
			want int
		}{
			{"", ep.ok},
			{"\n", ep.ok},
			{" \r\n\t ", ep.ok},
			{"garbage", http.StatusBadRequest},
			{ep.body, http.StatusBadRequest},
			{"\n" + ep.body, http.StatusBadRequest},
			{"{", http.StatusBadRequest},
			{"]", http.StatusBadRequest},
			{"0", http.StatusBadRequest},
			{strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge},
		} {
			jobs := len(mgr.List())
			body := ep.body + tail.text
			rec := serve(srv, ep.path, []byte(body))
			if rec.Code != tail.want {
				t.Errorf("POST %s %.80q → %d %s, want %d", ep.path, body, rec.Code, rec.Body, tail.want)
			}
			if ep.path == "/v1/jobs" && tail.want != ep.ok && len(mgr.List()) != jobs {
				t.Errorf("POST %s %.80q must be refused, yet it created a job", ep.path, body)
			}
		}
	}
}

// FuzzSubmitBody posts arbitrary bytes as a job body. Whatever the body,
// the server answers 200, 202, 400, 413 or 429, never a 5xx, and does not
// panic. The one server is built once, over a registry whose only
// experiment is instant, so a body with "wait": true cannot hang.
func FuzzSubmitBody(f *testing.F) {
	reg := registry.New(&registry.Experiment{
		Name: "echo", Doc: "test echo", ArtifactKinds: []string{"text"},
		Params: []registry.ParamSpec{{Name: "tag", Kind: registry.StringListKind,
			Default: "a", Enum: []string{"a", "b"}}},
		Run: func(_ context.Context, req registry.Request) (*registry.Result, error) {
			return &registry.Result{Text: fmt.Sprintf("echo seed=%d tag=%s\n", req.Seed, req.Params["tag"])}, nil
		},
	})
	// A body just under the cap holds some 50,000 runs; retaining few
	// finished jobs keeps the fuzzer's memory bounded.
	mgr := campaign.New(campaign.Config{Registry: reg, Workers: 2, QueueDepth: 8, JobRetention: 16})
	f.Cleanup(func() { _ = mgr.Drain(context.Background()) })
	srv := New(mgr, reg, nil)
	for _, body := range []string{
		`{"seed":3,"runs":[{"experiment":"echo","params":{"tag":"b"}},{"experiment":"echo","seed":4}]}`,
		`{"match":"ech","skip_slow":true}`,
		`{"runs":[{"experiment":"echo"}],"match":"echo"}`,
		`{"runs":[{"experiment":"echo"}],"bogus":1}`,
		`{"wait":true,"runs":[{"experiment":"echo","seed":7}]}`,
		`{"runs":[` + strings.Repeat(`{"experiment":"echo"},`, maxBodyBytes/21) + `{"experiment":"echo"}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(srv, "/v1/jobs", body)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST /v1/jobs %.200q → %d %s", body, rec.Code, rec.Body)
		}
	})
}

// FuzzFabricRunBody posts arbitrary bytes as a forwarded run to a
// one-member fleet. Whatever the body, the node answers 200, 400, 409,
// 413 or 422, never a 5xx, and does not panic. A 200 body is a
// RunRecord whose key re-resolves from its own experiment, seed and
// params, and every 200 and 422 says which tier served it: hit-mem or
// miss, since the node keeps no store.
func FuzzFabricRunBody(f *testing.F) {
	srv, mgr := newSoloFabricServer(f)
	_, key, err := mgr.ResolveRun(campaign.RunSpec{Experiment: "echo", Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"experiment":"echo","seed":3,"params":{"tag":"b"}}`,
		`{"experiment":"echo","seed":5,"key":"` + key + `"}`,
		`{"experiment":"echo","seed":6,"key":"` + key + `"}`,
		fmt.Sprintf(`{"experiment":"echo","seed":%d}`, echoFailSeed),
		`{"experiment":"nonesuch","seed":1}`,
		`{"experiment":"echo","params":{"tag":"z"}}`,
		`{"experiment":"echo","bogus":1}`,
		`{"experiment":"echo","seed":18446744073709551616}`,
		`{"experiment":"echo","seed":2}garbage`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(srv, "/v1/fabric/run", body)
		switch rec.Code {
		case http.StatusOK, http.StatusUnprocessableEntity:
			if tier := rec.Header().Get("X-Cache"); tier != string(campaign.TierMem) && tier != string(campaign.TierMiss) {
				t.Fatalf("POST /v1/fabric/run %.200q → %d with X-Cache %q", body, rec.Code, tier)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("POST /v1/fabric/run %.200q → %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var run campaign.RunRecord
		if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil {
			t.Fatalf("POST /v1/fabric/run %.200q → 200 with a body that is no RunRecord: %v", body, err)
		}
		_, key, err := mgr.ResolveRun(campaign.RunSpec{Experiment: run.Experiment, Seed: run.Seed, Params: run.Params})
		if err != nil || key != run.Key {
			t.Fatalf("POST /v1/fabric/run %.200q → a record keyed %s that re-resolves to %s (%v)", body, run.Key, key, err)
		}
	})
}

// TestConcurrentClientsCacheConvergence is the PR's acceptance scenario,
// run under -race in CI: 8 concurrent clients submit the same campaign;
// all get byte-identical result bodies and at least 7 are served from
// the content-addressed cache.
func TestConcurrentClientsCacheConvergence(t *testing.T) {
	ts, _, _ := newTestServer(t, 4, 32)

	const clients = 8
	body := `{"wait":true,"runs":[{"experiment":"echo","seed":555},{"experiment":"echo","seed":556}]}`
	var wg sync.WaitGroup
	statuses := make([]campaign.JobStatus, clients)
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[c] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			if err := json.Unmarshal(raw, &statuses[c]); err != nil {
				errs[c] = err
				return
			}
			rresp, err := http.Get(ts.URL + "/v1/jobs/" + statuses[c].ID + "/result")
			if err != nil {
				errs[c] = err
				return
			}
			defer rresp.Body.Close()
			bodies[c], errs[c] = io.ReadAll(rresp.Body)
		}(c)
	}
	wg.Wait()

	cached := 0
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if statuses[c].State != campaign.StateDone {
			t.Fatalf("client %d: state %s (%s)", c, statuses[c].State, statuses[c].Error)
		}
		if !bytes.Equal(bodies[0], bodies[c]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", c, bodies[0], bodies[c])
		}
		if statuses[c].Cached {
			cached++
		}
	}
	if cached < clients-1 {
		t.Fatalf("%d/%d clients served from cache, want ≥ %d", cached, clients, clients-1)
	}
}

// TestArtifactRoute serves a binary artifact through the raw-bytes
// route: a multi-MB blob covering every byte value survives the
// JSON result body and comes back byte-identical, typed by its kind,
// with a per-artifact ETag honoring If-None-Match.
func TestArtifactRoute(t *testing.T) {
	blob := make([]byte, 2<<20)
	for i := range blob {
		blob[i] = byte(i * 131)
	}
	reg := registry.New(&registry.Experiment{
		Name: "blob", Doc: "binary artifact source", ArtifactKinds: []string{"text", "trace"},
		Run: func(_ context.Context, _ registry.Request) (*registry.Result, error) {
			return &registry.Result{
				Text: "blob\n",
				Artifacts: []registry.Artifact{
					{Name: "payload.vbtr", Kind: "trace", Data: blob},
				},
			}, nil
		},
	})
	mgr := campaign.New(campaign.Config{Registry: reg, Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(New(mgr, reg, nil))
	defer func() {
		ts.Close()
		_ = mgr.Drain(context.Background())
	}()

	st, _, _ := submitWait(t, ts.URL, `{"wait":true,"runs":[{"experiment":"blob"}]}`)
	url := ts.URL + "/v1/jobs/" + st.ID + "/result/artifacts/0/payload.vbtr"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact GET: %d %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("trace artifact served as %q", ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(blob)) {
		t.Errorf("Content-Length = %s, want %d", cl, len(blob))
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("artifact bytes corrupted in transit: %d bytes back, want %d", len(got), len(blob))
	}

	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("artifact response carries no ETag")
	}
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation = %d, want 304", resp2.StatusCode)
	}

	for _, bad := range []string{
		"/v1/jobs/" + st.ID + "/result/artifacts/0/nonesuch.bin",
		"/v1/jobs/" + st.ID + "/result/artifacts/7/payload.vbtr",
		"/v1/jobs/" + st.ID + "/result/artifacts/x/payload.vbtr",
		"/v1/jobs/nonesuch/result/artifacts/0/payload.vbtr",
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", bad, resp.StatusCode)
		}
	}
}
