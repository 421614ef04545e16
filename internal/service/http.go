package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/store"
)

// HTTP/JSON surface of the service, shared by cmd/mstadviced and the
// tests. Endpoints (all JSON):
//
//	GET    /healthz                     liveness
//	GET    /v1/stats                    lifetime counters
//	GET    /v1/graphs                   list registered graphs
//	POST   /v1/graphs                   register: {"id", "path"} loads a
//	                                    store snapshot; {"id", "family",
//	                                    "n", "seed", "weights"} generates
//	                                    one and runs the oracle
//	GET    /v1/graphs/{id}              one graph's summary
//	DELETE /v1/graphs/{id}              drop
//	GET    /v1/graphs/{id}/advice?node=N   per-node advice bits
//	GET    /v1/graphs/{id}/tier?level=N    coarse tier as a standalone
//	                                    flat snapshot (level 0 or absent:
//	                                    coarsest available)
//	GET    /v1/graphs/{id}/decode       full local-MST reconstruction
//	GET    /v1/graphs/{id}/verify       decode + verdict only
//	POST   /v1/graphs/{id}/update       batched update: {"weights":
//	                                    [{"edge","w"}], "deletions": [...]}
//
// Handlers answer errors as {"error": "..."} with 400 (bad request),
// 404 (unknown graph) or 409 (duplicate registration). Request contexts
// flow into decode and update, so a client disconnect or server
// shutdown sheds the work (see advice.RunCtx / Advisor.UpdateCtx).

// registerRequest is the POST /v1/graphs body.
type registerRequest struct {
	ID string `json:"id"`
	// Problem selects the advice problem for generated instances
	// (default "mst"); stored snapshots carry their own problem ID and
	// reject a conflicting value here.
	Problem string `json:"problem,omitempty"`
	// Path registers a stored snapshot.
	Path string `json:"path,omitempty"`
	// Family/N/Seed/Weights generate an instance instead.
	Family  string `json:"family,omitempty"`
	N       int    `json:"n,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Weights string `json:"weights,omitempty"`
	Root    int    `json:"root,omitempty"`
}

// updateRequest is the POST /v1/graphs/{id}/update body.
type updateRequest struct {
	// Edge IDs decode straight into graph.EdgeID, so encoding/json rejects
	// a number outside the int32 range instead of it wrapping onto a
	// valid edge.
	Weights []struct {
		Edge graph.EdgeID `json:"edge"`
		W    int64        `json:"w"`
	} `json:"weights,omitempty"`
	Deletions []graph.EdgeID `json:"deletions,omitempty"`
}

// NewHandler returns the service's HTTP mux. allowPaths gates the
// register-by-path endpoint (the daemon enables it; embedded users that
// must not expose filesystem reads leave it off).
func NewHandler(s *Service, allowPaths bool) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsNow())
	})
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		infos := s.List()
		if infos == nil {
			infos = []Info{}
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad register body: %w", err))
			return
		}
		snap, err := snapshotFor(&req, allowPaths)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := s.Register(req.ID, snap); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, errDuplicateID) {
				status = http.StatusConflict
			}
			writeError(w, status, err)
			return
		}
		info, err := s.InfoFor(req.ID)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /v1/graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.InfoFor(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v1/graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.Drop(r.PathValue("id")) {
			writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown graph %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "dropped"})
	})
	mux.HandleFunc("GET /v1/graphs/{id}/advice", func(w http.ResponseWriter, r *http.Request) {
		node, err := strconv.Atoi(r.URL.Query().Get("node"))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad or missing node parameter: %w", err))
			return
		}
		reply, err := s.Advice(r.PathValue("id"), node)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("GET /v1/graphs/{id}/tier", func(w http.ResponseWriter, r *http.Request) {
		level := 0
		if raw := r.URL.Query().Get("level"); raw != "" {
			var err error
			if level, err = strconv.Atoi(raw); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad level parameter: %w", err))
				return
			}
		}
		reply, err := s.TierSnapshot(r.PathValue("id"), level)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("GET /v1/graphs/{id}/decode", func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.DecodeSession(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, sess)
	})
	mux.HandleFunc("GET /v1/graphs/{id}/verify", func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.DecodeSession(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"epoch": sess.Seq, "verified": sess.Verified, "verify_error": sess.VerifyErr,
		})
	})
	mux.HandleFunc("POST /v1/graphs/{id}/update", func(w http.ResponseWriter, r *http.Request) {
		var req updateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad update body: %w", err))
			return
		}
		b := graph.Batch{Deletions: req.Deletions}
		for _, wu := range req.Weights {
			b.Weights = append(b.Weights, graph.WeightUpdate{Edge: wu.Edge, W: graph.Weight(wu.W)})
		}
		reply, err := s.Update(r.Context(), r.PathValue("id"), b)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, reply)
	})
	return mux
}

// snapshotFor resolves a register request into a snapshot: a stored file
// or a generated instance.
func snapshotFor(req *registerRequest, allowPaths bool) (*store.Snapshot, error) {
	switch {
	case req.Path != "" && req.Family != "":
		return nil, fmt.Errorf("register: path and family are mutually exclusive")
	case req.Path != "":
		if !allowPaths {
			return nil, fmt.Errorf("register: loading snapshots by path is disabled on this server")
		}
		snap, err := store.OpenMapped(req.Path)
		if err != nil {
			return nil, err
		}
		if req.Problem != "" && req.Problem != snap.Problem {
			return nil, fmt.Errorf("register: snapshot %s stores problem %q, request says %q", req.Path, snap.Problem, req.Problem)
		}
		return snap, nil
	case req.Family != "":
		var mode gen.WeightMode
		switch req.Weights {
		case "", "distinct":
			mode = gen.WeightsDistinct
		case "random":
			mode = gen.WeightsRandom
		case "unit":
			mode = gen.WeightsUnit
		default:
			return nil, fmt.Errorf("register: unknown weight mode %q", req.Weights)
		}
		g, err := gen.BuildSeeded(req.Family, req.N, uint64(req.Seed), gen.SeededOptions{Weights: mode})
		if err != nil {
			return nil, err
		}
		if req.Root < 0 || req.Root >= g.N() {
			return nil, fmt.Errorf("register: root %d out of range [0,%d)", req.Root, g.N())
		}
		// No advice in the snapshot: Register runs the problem's oracle.
		return &store.Snapshot{Problem: req.Problem, Graph: g, Root: graph.NodeID(req.Root)}, nil
	default:
		return nil, fmt.Errorf("register: need either path or family")
	}
}

// statusFor maps service errors onto HTTP statuses: unknown graphs and
// tiers are 404, cancellations 503, everything else 400 — a client
// mistake is never a 500 (pinned by TestHTTPErrorCodes).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
