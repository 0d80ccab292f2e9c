package eval

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dvm/internal/cluster"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/security"
)

// TestMetricNamesStable pins every metric name and type that four
// daemons' /metrics expose: dashboards, alerts and the bench ledger read
// them by name, so a rename is a breaking change even when every Go
// caller still compiles. The registries are a standalone proxy with
// admission control and the disk tier on, one node of a 3-node attested
// fleet, dvmsecd's security server and the monitoring console. The
// golden holds one "registry name type" line per metric; regenerate it
// with -update only for a rename that is meant.
func TestMetricNamesStable(t *testing.T) {
	var got strings.Builder
	scrape := func(label string, h http.Handler) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		writeMetricTypes(t, &got, label, rec.Body)
	}

	p := proxy.New(proxy.MapOrigin{}, proxy.Config{CacheEnabled: true, DiskCacheDir: t.TempDir(), MaxQueue: 8})
	scrape("proxy", p.Handler())

	lc, err := cluster.StartLocal(proxy.MapOrigin{}, 3, nil, func(int) cluster.Config {
		return cluster.Config{GossipInterval: -1, AttestKey: []byte("metric-names"), AttestQuorum: 2}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	resp, err := http.Get(lc.Nodes[0].Self() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	writeMetricTypes(t, &got, "node", resp.Body)
	resp.Body.Close()

	scrape("secd", security.NewVersionedServer(security.NewServer(StandardPolicy())).Handler())
	scrape("monitor", monitor.NewCollector().Handler())

	compareGolden(t, "testdata/metric_names.txt", []byte(got.String()))
}

// writeMetricTypes appends one "label name type" line per "# TYPE" line
// of a Prometheus text exposition.
func writeMetricTypes(t *testing.T, w io.Writer, label string, body io.Reader) {
	t.Helper()
	sc := bufio.NewScanner(body)
	n := 0
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fmt.Fprintf(w, "%s %s %s\n", label, f[2], f[3])
			n++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("%s: /metrics exposed no metric", label)
	}
}
