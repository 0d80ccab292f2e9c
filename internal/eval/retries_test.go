package eval

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dvm/internal/jvm"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/resilience"
	"dvm/internal/security"
)

// TestZeroRetriesMeansOneAttempt: under a policy with Retries 0 each of
// the client's three hops — the class loader's, the security manager's
// and the console session's — makes exactly one attempt against a
// server that fails it.
func TestZeroRetriesMeansOneAttempt(t *testing.T) {
	policy := resilience.Policy{Retries: 0}
	noClasses := jvm.FuncLoader(func(string) ([]byte, error) { return nil, errors.New("no classes") })
	rows := []struct {
		name, path string // path is the route whose attempts count
		call       func(t *testing.T, url string)
	}{
		{"class loader", "/classes/", func(t *testing.T, url string) {
			if _, err := proxy.HTTPLoaderWith(url, "c", "dvm", proxy.LoaderOptions{Policy: policy}).Load("app/Main"); err == nil {
				t.Fatal("a load from a failing proxy succeeded")
			}
		}},
		{"security manager", "/domain", func(t *testing.T, url string) {
			rm := security.NewRemoteManagerWith(url, "apps", security.RemoteOptions{Policy: policy})
			defer rm.Close()
			vm, err := jvm.New(noClasses, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rm.Manager.Check(vm.MainThread(), "file.read", "/tmp/a") == nil {
				t.Fatal("a check against a failing server was allowed")
			}
		}},
		{"console session", "/events", func(t *testing.T, url string) {
			vm, err := jvm.New(noClasses, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := monitor.AttachHTTPWith(vm, url, monitor.ClientInfo{User: "u"}, 1, policy)
			if err != nil {
				t.Fatal(err)
			}
			vm.OnAudit(jvm.AuditEvent{Class: "app/Main", Method: "main", Kind: "enter"})
			if rs.Err() == nil {
				t.Fatal("a flush to a failing console succeeded")
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var attempts atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/handshake":
					io.WriteString(w, `{"session":"s"}`)
				case strings.HasPrefix(r.URL.Path, row.path):
					attempts.Add(1)
					http.Error(w, "down", http.StatusServiceUnavailable)
				default: // the security manager's long poll
					<-r.Context().Done()
				}
			}))
			defer srv.Close()
			row.call(t, srv.URL)
			if got := attempts.Load(); got != 1 {
				t.Errorf("%d attempts, want 1", got)
			}
		})
	}
}
