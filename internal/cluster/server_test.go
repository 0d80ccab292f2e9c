package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dvm/internal/proxy"
)

// TestNodeRoutesMatchNetHTTP runs each route of a node under net/http's
// server and under proxy.HopServer, the one a fleet serves with: a class
// hit, a batch fill, a vote, a gossip POST, /healthz and /metrics. The
// status and the headers but Date must be the same, and on every route
// but the two whose numbers move, the body too.
func TestNodeRoutesMatchNetHTTP(t *testing.T) {
	origin := walkOrigin(t)
	n := newBatchTestNode(t, origin, Config{})
	if _, err := n.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/A"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hop := &proxy.HopServer{Handler: n.Handler()}
	go hop.Serve(l)
	defer hop.Close()

	gossip, err := json.Marshal(View{From: "http://b", Members: []MemberInfo{{Addr: "http://b", Incarnation: 1, State: "alive", Version: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	vote := BatchRequest{Reason: reasonVote, Member: "http://r:1", Arch: "dvm", Classes: []string{"app/A"},
		Vote: Proposal{Payload: origin["app/A"]}}
	fill := fillRequest(n)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	for _, rc := range []struct {
		name, method, path string
		body               []byte
		status             int
		sameBody           bool
	}{
		{"class hit", http.MethodGet, "/classes/app/A.class", nil, 200, true},
		{"batch fill", http.MethodPost, BatchPath, fill.encode().bytes(), 200, true},
		{"vote", http.MethodPost, VotePath, vote.encode().bytes(), 200, true},
		{"gossip", http.MethodPost, gossipV1Path, gossip, 200, true},
		{"batch GET", http.MethodGet, BatchPath, nil, 405, true},
		{"healthz", http.MethodGet, "/healthz", nil, 200, false},
		{"metrics", http.MethodGet, "/metrics", nil, 200, false},
	} {
		var answers [2]struct {
			status int
			header http.Header
			body   []byte
		}
		for i, base := range []string{ts.URL, "http://" + l.Addr().String()} {
			req, err := http.NewRequest(rc.method, base+rc.path, bytes.NewReader(rc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Dvm-Arch", "dvm")
			resp, err := tr.RoundTrip(req)
			if err != nil {
				t.Fatalf("%s: %v", rc.name, err)
			}
			a := &answers[i]
			a.status, a.header = resp.StatusCode, resp.Header
			a.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || a.header.Get("Date") == "" {
				t.Fatalf("%s: body err %v, Date %q", rc.name, err, a.header.Get("Date"))
			}
			a.header.Del("Date")
			if !rc.sameBody {
				a.header.Del("Content-Length") // net/http chunks an unsized body over 2 KB
			}
		}
		nh, hs := answers[0], answers[1]
		if nh.status != rc.status || nh.status != hs.status || !reflect.DeepEqual(nh.header, hs.header) || rc.sameBody && !bytes.Equal(nh.body, hs.body) {
			t.Errorf("%s: HopServer answers %d %v %d bytes; net/http %d %v %d bytes",
				rc.name, hs.status, hs.header, len(hs.body), nh.status, nh.header, len(nh.body))
		}
	}
}
