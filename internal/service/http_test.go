package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"mstadvice/internal/store"
)

// doJSON issues one request against the test server and decodes the
// reply into out (when non-nil), returning the status code.
func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding reply: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPEndToEnd(t *testing.T) {
	snap := makeSnapshot(t, 64, 192, 9)
	path := filepath.Join(t.TempDir(), "g.mstadv")
	if err := store.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	svc := New()
	srv := httptest.NewServer(NewHandler(svc, true))
	defer srv.Close()

	if code := doJSON(t, srv, "GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// Register from the stored file.
	var info Info
	code := doJSON(t, srv, "POST", "/v1/graphs", map[string]any{"id": "g", "path": path}, &info)
	if code != http.StatusCreated || info.N != 64 || info.Epoch != 0 {
		t.Fatalf("register = %d, %+v", code, info)
	}
	// Duplicate is a conflict.
	if code := doJSON(t, srv, "POST", "/v1/graphs", map[string]any{"id": "g", "path": path}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate register = %d, want 409", code)
	}
	// Register a generated instance.
	if code := doJSON(t, srv, "POST", "/v1/graphs",
		map[string]any{"id": "gen", "family": "grid", "n": 16, "seed": 3}, &info); code != http.StatusCreated {
		t.Fatalf("generate register = %d", code)
	}

	var infos []Info
	if code := doJSON(t, srv, "GET", "/v1/graphs", nil, &infos); code != http.StatusOK || len(infos) != 2 {
		t.Fatalf("list = %d with %d entries, want 2", code, len(infos))
	}

	// Advice: every node's bits match the snapshot.
	for u := 0; u < snap.Graph.N(); u++ {
		var reply AdviceReply
		code := doJSON(t, srv, "GET", fmt.Sprintf("/v1/graphs/g/advice?node=%d", u), nil, &reply)
		if code != http.StatusOK || reply.Bits != snap.Advice[u].String() {
			t.Fatalf("advice of node %d = %d, %+v", u, code, reply)
		}
	}
	// Bad node and unknown graph.
	if code := doJSON(t, srv, "GET", "/v1/graphs/g/advice?node=zzz", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad node = %d, want 400", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/graphs/g/advice?node=100000", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node = %d, want 400", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/graphs/nope/advice?node=0", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph = %d, want 404", code)
	}

	// Decode + verify. /verify reads the epoch's cached decode session,
	// so only an epoch's first decode counts as an op="decode".
	decodes := func() uint64 {
		t.Helper()
		v, ok := svc.Metrics().CounterValue("service_op_total", "op", "decode")
		if !ok {
			t.Fatal(`service_op_total{op="decode"} is not registered`)
		}
		return v
	}
	var sess Session
	if code := doJSON(t, srv, "GET", "/v1/graphs/g/decode", nil, &sess); code != http.StatusOK || !sess.Verified {
		t.Fatalf("decode = %d, %+v", code, sess)
	}
	var verdict struct {
		Verified bool `json:"verified"`
	}
	before := decodes()
	if code := doJSON(t, srv, "GET", "/v1/graphs/g/verify", nil, &verdict); code != http.StatusOK || !verdict.Verified {
		t.Fatalf("verify = %d, %+v", code, verdict)
	}
	if got := decodes(); got != before {
		t.Fatalf("cached verify decoded again: op=decode %d -> %d", before, got)
	}

	// Update: perturb edge 0's weight upward (any outcome path is fine;
	// the epoch must advance and the new epoch must verify).
	var up UpdateReply
	w := snap.Graph.Weight(0)
	code = doJSON(t, srv, "POST", "/v1/graphs/g/update",
		map[string]any{"weights": []map[string]any{{"edge": 0, "w": int(w) + 1}}}, &up)
	if code != http.StatusOK || up.Epoch != 1 {
		t.Fatalf("update = %d, %+v", code, up)
	}
	if code := doJSON(t, srv, "GET", "/v1/graphs/g/verify", nil, &verdict); code != http.StatusOK || !verdict.Verified {
		t.Fatalf("verify after update = %d, %+v", code, verdict)
	}
	if got := decodes(); got != before+1 {
		t.Fatalf("verify of the new epoch: op=decode %d -> %d, want exactly one decode", before, got)
	}
	if _, ok := svc.Metrics().CounterValue("service_op_total", "op", "verify"); ok {
		t.Fatal(`service_op_total{op="verify"} is registered, but no operation records it`)
	}

	// Malformed update bodies are 400s, not crashes.
	if code := doJSON(t, srv, "POST", "/v1/graphs/g/update", "not an object", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed update = %d, want 400", code)
	}
	// An invalid batch (edge out of range) reports the service error.
	if code := doJSON(t, srv, "POST", "/v1/graphs/g/update",
		map[string]any{"deletions": []int{99999}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad batch = %d, want 400", code)
	}

	// Stats and drop.
	var st Stats
	if code := doJSON(t, srv, "GET", "/v1/stats", nil, &st); code != http.StatusOK || st.Registered != 2 || st.Updates != 1 {
		t.Fatalf("stats = %d, %+v", code, st)
	}
	if code := doJSON(t, srv, "DELETE", "/v1/graphs/g", nil, nil); code != http.StatusOK {
		t.Fatalf("drop = %d", code)
	}
	if code := doJSON(t, srv, "DELETE", "/v1/graphs/g", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double drop = %d, want 404", code)
	}
}

func TestHTTPPathRegistrationGate(t *testing.T) {
	svc := New()
	srv := httptest.NewServer(NewHandler(svc, false))
	defer srv.Close()
	code := doJSON(t, srv, "POST", "/v1/graphs", map[string]any{"id": "g", "path": "/etc/passwd"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("path registration on a gated server = %d, want 400", code)
	}
	// Family registration still works.
	if code := doJSON(t, srv, "POST", "/v1/graphs",
		map[string]any{"id": "g", "family": "ring", "n": 8}, nil); code != http.StatusCreated {
		t.Fatalf("family registration = %d, want 201", code)
	}
}

func TestHTTPRegisterValidation(t *testing.T) {
	svc := New()
	srv := httptest.NewServer(NewHandler(svc, true))
	defer srv.Close()
	for name, body := range map[string]any{
		"no source":    map[string]any{"id": "x"},
		"both sources": map[string]any{"id": "x", "path": "p", "family": "ring"},
		"bad family":   map[string]any{"id": "x", "family": "klein-bottle", "n": 8},
		"bad weights":  map[string]any{"id": "x", "family": "ring", "n": 8, "weights": "prime"},
		"bad root":     map[string]any{"id": "x", "family": "ring", "n": 8, "root": 99},
		"missing file": map[string]any{"id": "x", "path": "/nonexistent.mstadv"},
		"empty id":     map[string]any{"family": "ring", "n": 8},
		"malformed":    "][",
	} {
		if code := doJSON(t, srv, "POST", "/v1/graphs", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: register = %d, want 400", name, code)
		}
	}
}

// TestHTTPCanceledRequest pins request-context propagation through the
// handlers: a request whose context is already canceled when the
// handler runs (a disconnected client, or a shutdown past the drain
// deadline) answers 503 with a JSON error body — and does none of the
// decode or update work it was asking for.
func TestHTTPCanceledRequest(t *testing.T) {
	svc := New()
	if err := svc.Register("g", makeSnapshot(t, 64, 192, 9)); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(svc, false)
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/v1/graphs/g/decode", ""},
		{"GET", "/v1/graphs/g/verify", ""},
		{"POST", "/v1/graphs/g/update", `{"weights":[{"edge":1,"w":777}]}`},
	} {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		req := httptest.NewRequest(tc.method, tc.path, body)
		ctx, cancel := context.WithCancel(req.Context())
		cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req.WithContext(ctx))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s with canceled context = %d, want 503 (body %s)", tc.method, tc.path, rec.Code, rec.Body)
		}
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s %s: body %q is not a JSON error object", tc.method, tc.path, rec.Body)
		}
	}
	if st := svc.StatsNow(); st.Decodes != 0 || st.Updates != 0 {
		t.Errorf("canceled requests did work anyway: %+v", st)
	}
}

// TestHTTPUpdateRejectsWideEdgeIDs posts edge IDs outside the int32
// range of graph.EdgeID. Each must be a 400 that leaves the graph at its
// first epoch, never a truncation onto a real edge (2^32 would wrap to
// edge 0).
func TestHTTPUpdateRejectsWideEdgeIDs(t *testing.T) {
	svc := New()
	snap := makeSnapshot(t, 64, 192, 9)
	if err := svc.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(svc, false)
	for _, body := range []string{
		`{"deletions":[4294967296]}`,
		`{"deletions":[2147483648]}`,
		`{"deletions":[-4294967296]}`,
		`{"weights":[{"edge":4294967296,"w":1}]}`,
		`{"weights":[{"edge":4294967297,"w":1}]}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs/g/update", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("update %s = %d, want 400 (body %s)", body, rec.Code, rec.Body)
		}
	}
	info, err := svc.InfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 0 || info.M != snap.Graph.M() {
		t.Fatalf("rejected updates changed the graph: %+v", info)
	}
	if st := svc.StatsNow(); st.Updates != 0 {
		t.Fatalf("rejected updates were applied: %+v", st)
	}
}

// TestHTTPErrorCodes is the error-code audit: every client mistake —
// malformed JSON, unknown graphs, bad parameters, conflicting
// registrations — answers a 4xx with a JSON error body, never a 500.
func TestHTTPErrorCodes(t *testing.T) {
	svc := New()
	if err := svc.Register("g", makeSnapshot(t, 64, 192, 9)); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(svc, false)
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"register malformed JSON", "POST", "/v1/graphs", `{"id": `, 400},
		{"register without source", "POST", "/v1/graphs", `{"id":"x"}`, 400},
		{"register path disabled", "POST", "/v1/graphs", `{"id":"x","path":"/etc/passwd"}`, 400},
		{"register path and family", "POST", "/v1/graphs", `{"id":"x","path":"a","family":"random","n":8}`, 400},
		{"register unknown family", "POST", "/v1/graphs", `{"id":"x","family":"nope","n":8}`, 400},
		{"register unknown problem", "POST", "/v1/graphs", `{"id":"x","family":"random","n":8,"problem":"nope"}`, 400},
		{"register unknown weights", "POST", "/v1/graphs", `{"id":"x","family":"random","n":8,"weights":"nope"}`, 400},
		{"register root out of range", "POST", "/v1/graphs", `{"id":"x","family":"random","n":8,"root":9999}`, 400},
		{"register graph over the size bound", "POST", "/v1/graphs", `{"id":"x","family":"complete","n":70000}`, 400},
		{"register duplicate", "POST", "/v1/graphs", `{"id":"g","family":"random","n":8}`, 409},
		{"register ID quoting the conflict phrase", "POST", "/v1/graphs", `{"id":"already registered","family":"random","n":8,"problem":"nope"}`, 400},
		{"register ID over the bound", "POST", "/v1/graphs", `{"id":"` + strings.Repeat("x", store.MaxString+1) + `","family":"random","n":8}`, 400},
		{"info unknown graph", "GET", "/v1/graphs/nope", "", 404},
		{"drop unknown graph", "DELETE", "/v1/graphs/nope", "", 404},
		{"advice missing node", "GET", "/v1/graphs/g/advice", "", 400},
		{"advice bad node", "GET", "/v1/graphs/g/advice?node=abc", "", 400},
		{"advice node out of range", "GET", "/v1/graphs/g/advice?node=9999", "", 400},
		{"advice unknown graph", "GET", "/v1/graphs/nope/advice?node=0", "", 404},
		{"tier bad level", "GET", "/v1/graphs/g/tier?level=abc", "", 400},
		{"tier unknown graph", "GET", "/v1/graphs/nope/tier", "", 404},
		{"tier absent", "GET", "/v1/graphs/g/tier?level=3", "", 404},
		{"decode unknown graph", "GET", "/v1/graphs/nope/decode", "", 404},
		{"verify unknown graph", "GET", "/v1/graphs/nope/verify", "", 404},
		{"update malformed JSON", "POST", "/v1/graphs/g/update", `{"weights":`, 400},
		{"update unknown graph", "POST", "/v1/graphs/nope/update", `{}`, 404},
		{"update bad edge", "POST", "/v1/graphs/g/update", `{"weights":[{"edge":123456,"w":1}]}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req := httptest.NewRequest(tc.method, tc.path, body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("%s %s = %d, want %d (body %s)", tc.method, tc.path, rec.Code, tc.want, rec.Body)
			}
			if rec.Code >= 500 {
				t.Fatalf("client mistake answered as a server error: %d", rec.Code)
			}
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("%s %s: body %q is not a JSON error object", tc.method, tc.path, rec.Body)
			}
		})
	}
}
