// Package api is the HTTP surface of the campaign service: a stdlib
// net/http JSON API over internal/campaign that cmd/voltbootd serves.
//
// Routes:
//
//	GET    /healthz                  liveness
//	GET    /v1/experiments           the registry catalog with param schemas
//	POST   /v1/jobs                  submit a campaign (429 when the queue is full)
//	GET    /v1/jobs                  list jobs
//	GET    /v1/jobs/{id}             one job's status + progress counters
//	GET    /v1/jobs/{id}/result      the deterministic result body
//	GET    /v1/jobs/{id}/result/artifacts/{run}/{name}
//	                                 one artifact's raw bytes (typed per kind)
//	DELETE /v1/jobs/{id}             cancel
//	GET    /v1/jobs/{id}/events      NDJSON progress stream, replay + live
//	GET    /v1/ring                  fabric membership, peer states, stats
//	POST   /v1/fabric/run            peer-to-peer forwarded-run intake
//
// Result responses carry X-Cache (hit-mem | hit-disk | miss | forward —
// the worst tier across the job's runs) and a strong ETag (the quoted
// hex SHA-256 of the body, computed once when the job finished). An
// If-None-Match revalidation answers 304 without touching the body.
//
// POST bodies name runs either explicitly ("runs") or as a catalog sweep
// ("match" + skip_slow); a body over 1 MiB is refused with 413. With
// "wait": true the request blocks until the job finishes and the job is
// request-scoped: a client that disconnects mid-wait cancels its job.
//
// The fabric routes exist only when New is given a fabric.Node (404
// otherwise): /v1/ring is the readiness/compatibility probe peers poll,
// and /v1/fabric/run executes one forwarded shard against the local
// cache hierarchy — 200 with the record and its serving tier, 409 on a
// catalog disagreement, 422 on a deterministic run failure, 503 while
// draining (the sender hands the shard back).
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/fabric"
	"repro/internal/registry"
)

// DefaultSeed seeds runs that specify none — the same 0x5EED default as
// cmd/experiments.
const DefaultSeed uint64 = 0x5EED

// maxBodyBytes caps a POST body. A job spec or a forwarded shard is a few
// hundred bytes; the cap keeps one client from making the server buffer
// one of any size.
const maxBodyBytes = 1 << 20

// Server is the http.Handler for the campaign service.
type Server struct {
	mgr  *campaign.Manager
	reg  *registry.Registry
	node *fabric.Node // nil on a standalone node
	mux  *http.ServeMux
}

// New wires the routes. node may be nil for a standalone deployment;
// the fabric routes then answer 404.
func New(mgr *campaign.Manager, reg *registry.Registry, node *fabric.Node) *Server {
	s := &Server{mgr: mgr, reg: reg, node: node, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result/artifacts/{run}/{name}", s.handleArtifact)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/ring", s.handleRing)
	s.mux.HandleFunc("POST /v1/fabric/run", s.handleFabricRun)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeBody decodes r's JSON body into v, rejecting unknown fields and
// bodies over maxBodyBytes. On error it returns the status to answer
// with: 413 for an oversize body, 400 for any other bad body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// experimentInfo is one /v1/experiments row.
type experimentInfo struct {
	Name          string               `json:"name"`
	Doc           string               `json:"doc"`
	Slow          bool                 `json:"slow"`
	ArtifactKinds []string             `json:"artifact_kinds"`
	Params        []registry.ParamSpec `json:"params,omitempty"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	exps := s.reg.Experiments()
	out := make([]experimentInfo, 0, len(exps))
	for _, e := range exps {
		out = append(out, experimentInfo{
			Name: e.Name, Doc: e.Doc, Slow: e.Slow,
			ArtifactKinds: e.ArtifactKinds, Params: e.Params,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	// Seed is the default seed for runs that don't set their own.
	Seed *uint64 `json:"seed,omitempty"`
	// Runs names the campaign explicitly…
	Runs []submitRun `json:"runs,omitempty"`
	// …or Match sweeps the catalog for experiments whose name contains
	// the substring ("" = everything). Mutually exclusive with Runs.
	Match    *string `json:"match,omitempty"`
	SkipSlow bool    `json:"skip_slow,omitempty"`
	// Wait blocks the request until the job is terminal; the job becomes
	// request-scoped (client disconnect cancels it).
	Wait bool `json:"wait,omitempty"`
}

type submitRun struct {
	Experiment string            `json:"experiment"`
	Seed       *uint64           `json:"seed,omitempty"`
	Params     map[string]string `json:"params,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		writeError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	defaultSeed := DefaultSeed
	if req.Seed != nil {
		defaultSeed = *req.Seed
	}

	var spec campaign.Spec
	switch {
	case len(req.Runs) > 0 && req.Match != nil:
		writeError(w, http.StatusBadRequest, errors.New(`"runs" and "match" are mutually exclusive`))
		return
	case len(req.Runs) > 0:
		for _, sr := range req.Runs {
			seed := defaultSeed
			if sr.Seed != nil {
				seed = *sr.Seed
			}
			spec.Runs = append(spec.Runs, campaign.RunSpec{
				Experiment: sr.Experiment, Seed: seed, Params: sr.Params,
			})
		}
	case req.Match != nil:
		for _, e := range s.reg.Match(*req.Match) {
			if req.SkipSlow && e.Slow {
				continue
			}
			spec.Runs = append(spec.Runs, campaign.RunSpec{Experiment: e.Name, Seed: defaultSeed})
		}
		if len(spec.Runs) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("match %q selects no experiments", *req.Match))
			return
		}
	default:
		writeError(w, http.StatusBadRequest, errors.New(`body must set "runs" or "match"`))
		return
	}

	st, err := s.mgr.Submit(spec)
	switch {
	case errors.Is(err, campaign.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, campaign.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}

	if !req.Wait {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	if st.State.Terminal() {
		// Fully-cached submissions finish inside Submit; skip the event
		// loop and its two extra status snapshots.
		writeJSON(w, http.StatusOK, st)
		return
	}
	// Request-scoped job: follow the event stream until terminal; if the
	// client goes away first, the job goes with it.
	from := 0
	for {
		evs, watch, terminal, err := s.mgr.EventsSince(st.ID, from)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		from += len(evs)
		if terminal && len(evs) == 0 {
			break
		}
		if !terminal {
			select {
			case <-watch:
			case <-r.Context().Done():
				_, _ = s.mgr.Cancel(st.ID)
				return
			}
		}
	}
	final, err := s.mgr.Get(st.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, final)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Get(r.PathValue("id"))
	if errors.Is(err, campaign.ErrNotFound) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rb, err := s.mgr.Result(id)
	switch {
	case errors.Is(err, campaign.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, campaign.ErrNotFinished):
		st, gerr := s.mgr.Get(id)
		if gerr == nil && st.State == campaign.StateCancelled {
			writeError(w, http.StatusGone, errors.New("job was cancelled"))
			return
		}
		writeError(w, http.StatusConflict, err)
		return
	case err != nil: // the job's own failure
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("X-Cache", string(rb.Tier))
	w.Header().Set("ETag", rb.ETag)
	if etagMatch(r.Header.Get("If-None-Match"), rb.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// The stored bytes go out verbatim: no re-marshal, no chunking.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(rb.Body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rb.Body)
}

// handleArtifact serves one artifact of one run as raw bytes with the
// Content-Type its kind declares — the escape hatch from the JSON
// result body for binary payloads (trace sets, bitmaps) that clients
// should not have to base64-decode. The ETag is the artifact's own
// SHA-256, so a revalidation doesn't depend on which runs share the
// job.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rb, err := s.mgr.Result(id)
	switch {
	case errors.Is(err, campaign.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, campaign.ErrNotFinished):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	runIdx, err := strconv.Atoi(r.PathValue("run"))
	if err != nil || runIdx < 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("bad run index %q", r.PathValue("run")))
		return
	}
	var body struct {
		Runs []campaign.RunRecord `json:"runs"`
	}
	if err := json.Unmarshal(rb.Body, &body); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("corrupt result body: %w", err))
		return
	}
	if runIdx >= len(body.Runs) {
		writeError(w, http.StatusNotFound, fmt.Errorf("job has %d runs, no run %d", len(body.Runs), runIdx))
		return
	}
	name := r.PathValue("name")
	for _, a := range body.Runs[runIdx].Artifacts {
		if a.Name != name {
			continue
		}
		etag := `"` + a.SHA256 + `"`
		w.Header().Set("X-Cache", string(rb.Tier))
		w.Header().Set("ETag", etag)
		if etagMatch(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", registry.ArtifactContentType(a.Kind))
		w.Header().Set("Content-Length", strconv.Itoa(len(a.Data)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(a.Data)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("run %d has no artifact %q", runIdx, name))
}

// etagMatch reports whether an If-None-Match header value matches the
// entity tag (strong comparison; "*" matches anything).
func etagMatch(inm, etag string) bool {
	if inm == "" || etag == "" {
		return false
	}
	if inm == "*" {
		return true
	}
	for _, cand := range strings.Split(inm, ",") {
		if strings.TrimSpace(cand) == etag {
			return true
		}
	}
	return false
}

// handleRing is the fabric readiness/compatibility probe.
func (s *Server) handleRing(w http.ResponseWriter, _ *http.Request) {
	if s.node == nil {
		writeError(w, http.StatusNotFound, errors.New("fabric not configured"))
		return
	}
	writeJSON(w, http.StatusOK, s.node.Status())
}

// handleFabricRun executes one forwarded shard for a peer.
func (s *Server) handleFabricRun(w http.ResponseWriter, r *http.Request) {
	if s.node == nil {
		writeError(w, http.StatusNotFound, errors.New("fabric not configured"))
		return
	}
	if fp := r.Header.Get(fabric.HeaderFingerprint); fp != "" && fp != s.node.Fingerprint() {
		writeError(w, http.StatusConflict, errors.New("catalog fingerprint mismatch"))
		return
	}
	var req fabric.ForwardRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		writeError(w, status, fmt.Errorf("bad forward body: %w", err))
		return
	}
	rec, tier, err := s.node.ServeForwarded(r.Context(), req)
	var bad *fabric.BadForwardError
	switch {
	case errors.Is(err, fabric.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.As(err, &bad):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		// The run executed here and failed deterministically; the sender
		// propagates this instead of retrying elsewhere. The tier tells it
		// whether the failure came from this node's cache.
		w.Header().Set("X-Cache", string(tier))
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("X-Cache", string(tier))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(rec)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rec)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Cancel(r.PathValue("id"))
	if errors.Is(err, campaign.ErrNotFound) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleEvents streams a job's progress as NDJSON: full replay, then
// live events, closing after the terminal event (or when the client
// disconnects).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.mgr.Get(id); errors.Is(err, campaign.ErrNotFound) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	from := 0
	for {
		evs, watch, terminal, err := s.mgr.EventsSince(id, from)
		if err != nil {
			return
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		from += len(evs)
		if terminal && len(evs) == 0 {
			return
		}
		if !terminal {
			select {
			case <-watch:
			case <-r.Context().Done():
				return
			}
		}
	}
}
