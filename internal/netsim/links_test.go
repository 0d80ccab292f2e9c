package netsim

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestLinkFaultsIsolatePerDestination(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer bad.Close()

	lf := NewLinkFaults(nil)
	lf.SetLink(bad.Listener.Addr().String(), FaultSpec{Seed: 1, ErrorRate: 1})
	client := client(lf.Dial)

	// The faulted link always fails.
	if _, err := client.Get(bad.URL); err == nil {
		t.Fatal("request over cut link succeeded")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Traffic to every other host passes clean.
	resp, err := client.Get(good.URL)
	if err != nil {
		t.Fatalf("clean link failed: %v", err)
	}
	resp.Body.Close()

	if st, ok := lf.LinkStats(bad.Listener.Addr().String()); !ok || st.Errors != 1 {
		t.Errorf("link stats = %+v ok=%v, want 1 injected error", st, ok)
	}
	if _, ok := lf.LinkStats("nosuch:1"); ok {
		t.Error("stats reported for an unconfigured link")
	}

	// Clearing the link restores it.
	lf.ClearLink(bad.Listener.Addr().String())
	resp, err = client.Get(bad.URL)
	if err != nil {
		t.Fatalf("cleared link still failing: %v", err)
	}
	resp.Body.Close()
}
