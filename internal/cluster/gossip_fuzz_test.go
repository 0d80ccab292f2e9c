package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// gossipSeeds are views a peer could send: an honest one, one that
// suspects the receiver, one that revives a member at a higher
// incarnation, and one with an unknown state and an empty address.
func gossipSeeds(f *testing.F) [][]byte {
	f.Helper()
	views := []View{
		{From: "http://b", Epoch: 3, Members: []MemberInfo{
			{Addr: "http://a", Incarnation: 1, State: "alive", Version: 1},
			{Addr: "http://b", Incarnation: 1, State: "alive", Version: 1},
			{Addr: "http://c", Incarnation: 1, State: "alive", Version: 1},
		}},
		{From: "http://b", Members: []MemberInfo{{Addr: "http://a", Incarnation: 4, State: "suspect", Version: 9}}},
		{From: "http://c", Members: []MemberInfo{
			{Addr: "http://c", Incarnation: 7, State: "draining", Version: 2},
			{Addr: "http://d", Incarnation: 2, State: "dead", Version: 5},
			{Addr: "http://d", Incarnation: 3, State: "alive", Version: 1},
		}},
		{Members: []MemberInfo{{Addr: "", Incarnation: 1, State: "alive"}, {Addr: "http://e", State: "zombie"}}},
	}
	var out [][]byte
	for _, v := range views {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzGossipBody posts arbitrary bodies to the gossip route. handleGossip
// never panics and answers 200 or 400, and merging is idempotent: a body
// that decodes, posted a second time, leaves the view (every member's
// state, incarnation and version, and the epoch) as the first left it.
func FuzzGossipBody(f *testing.F) {
	for _, seed := range gossipSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte(`{"members":[{"addr":"http://a","inc":18446744073709551615,"state":"dead","v":18446744073709551615}]}`))
	f.Add([]byte(`{"members":null}`))
	f.Add([]byte(`[]`))
	clock := time.Unix(1e9, 0)
	f.Fuzz(func(t *testing.T, body []byte) {
		n := &Node{mship: newMembership("http://a", []string{"http://b", "http://c"}, func() time.Time { return clock })}
		post := func() int {
			rec := httptest.NewRecorder()
			n.handleGossip(rec, httptest.NewRequest(http.MethodPost, gossipV1Path, bytes.NewReader(body)))
			return rec.Code
		}
		code := post()
		if code != http.StatusOK {
			if code != http.StatusBadRequest {
				t.Fatalf("status %d for %q", code, body)
			}
			return
		}
		once := n.mship.View()
		if code := post(); code != http.StatusOK {
			t.Fatalf("status %d the second time for %q", code, body)
		}
		if twice := n.mship.View(); !reflect.DeepEqual(once, twice) {
			t.Errorf("merging %q twice:\n once %+v\ntwice %+v", body, once, twice)
		}
	})
}
