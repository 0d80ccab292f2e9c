package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/url"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvm/internal/jvm"
	"dvm/internal/resilience"
	"dvm/internal/slab"
	"dvm/internal/telemetry"
)

// HTTP front end: clients fetch classes with
//
//	GET /classes/<internal/class/Name>.class
//	X-DVM-Client: <client id>      (from the handshake)
//	X-DVM-Arch:   <native format>  (e.g. "dvm" or "x86-jdk")
//
// The path mirrors how 1999-era browsers fetched applets through an HTTP
// proxy; the DVM headers carry what the paper's handshake protocol
// established out of band.
//
// Failures map to distinct statuses so clients can react correctly:
// origin deadline exceeded -> 504, origin breaker open -> 503 with
// Retry-After, shed by admission control -> 429 with Retry-After,
// class unknown -> 404, other upstream failures -> 502.

const classPathPrefix = "/classes/"

// The DVM request headers in canonical form, the form a header map must
// hold them in for Header.Get to find them; Get copies a key that is not.
const (
	clientHeaderKey = "X-Dvm-Client"
	archHeaderKey   = "X-Dvm-Arch"
)

var traceHeaderKey = http.CanonicalHeaderKey(telemetry.TraceHeader)

// classContentType is every class response's Content-Type value, shared
// read-only by the responses (the server copies a header when it writes it).
var classContentType = []string{"application/java-vm"}

// retryAfterSeconds is the hint sent with a 503 while the origin
// breaker is open: roughly the breaker cooldown.
const retryAfterSeconds = 5

// shedRetryAfterSeconds is the hint sent with a 429 when admission
// control sheds the request: overload is expected to clear on the queue
// drain timescale, much faster than a breaker cooldown.
const shedRetryAfterSeconds = 1

// StatusFor maps a Request error to its HTTP status. Exported so the
// cluster peer protocol serves the same status semantics as the
// client-facing front end.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, resilience.ErrOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound), errors.Is(err, fs.ErrNotExist):
		return http.StatusNotFound
	default:
		return http.StatusBadGateway
	}
}

// Handler returns the proxy's HTTP interface: the class route,
// /healthz and /metrics.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/healthz", telemetry.HealthHandler(p.Health))
	mux.Handle("/metrics", p.reg.Handler())
	return WithClassRoute(p.ClassHandler(), mux)
}

// WithClassRoute serves the class route with classes and every other
// path with mux. A clean path under /classes/ is matched by its prefix,
// which spares the mux's pattern walk and its allocations; any other
// goes to mux, which serves /classes/ with classes too, after its own
// cleaning and redirects.
func WithClassRoute(classes http.Handler, mux *http.ServeMux) http.Handler {
	mux.Handle(classPathPrefix, classes)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p := r.URL.Path; strings.HasPrefix(p, classPathPrefix) && path.Clean(p) == p {
			classes.ServeHTTP(w, r)
		} else {
			mux.ServeHTTP(w, r)
		}
	})
}

// ClassHandler serves the class route, GET /classes/<name>.class, for a
// mux that holds the other routes itself (a cluster node's).
func (p *Proxy) ClassHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		name := strings.TrimPrefix(r.URL.Path, classPathPrefix)
		name = strings.TrimSuffix(name, ".class")
		if name == "" || strings.Contains(name, "..") {
			http.Error(w, "bad class name", http.StatusBadRequest)
			return
		}
		client := r.Header.Get(clientHeaderKey)
		arch := r.Header.Get(archHeaderKey)
		// Continue the caller's trace, if it sent one, so the response can
		// carry this hop's per-stage spans back to the requester. An
		// untraced request gets neither trace header.
		tr := telemetry.JoinTrace(r.Header.Get(traceHeaderKey))
		res, err := p.Request(telemetry.WithTrace(r.Context(), tr), Lookup{Client: client, Arch: arch, Class: name})
		if tr != nil {
			w.Header().Set(telemetry.TraceHeader, tr.ID())
			tr.WriteSpans(w.Header())
		}
		if err != nil {
			status := StatusFor(err)
			if status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
			}
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", fmt.Sprint(shedRetryAfterSeconds))
			}
			http.Error(w, err.Error(), status)
			return
		}
		h := w.Header()
		h["Content-Type"] = classContentType
		h["Content-Length"] = []string{strconv.Itoa(len(res.Data))}
		_, _ = w.Write(res.Data)
		res.Release() // written: the bytes may go back to the pool
	})
}

// Loader returns an in-process jvm.ClassLoader that resolves classes
// through the proxy directly (no HTTP hop) — the configuration used by
// most experiments, where client and proxy share a benchmark process. It
// never releases a result: the bytes it returns are the caller's for good.
func (p *Proxy) Loader(client, arch string) jvm.ClassLoader {
	return jvm.FuncLoader(func(name string) ([]byte, error) {
		res, err := p.Request(context.Background(), Lookup{Client: client, Arch: arch, Class: name})
		return res.Data, err
	})
}

// maxClassBytes bounds a class response read by HTTPLoader: a
// misbehaving or compromised proxy must not be able to OOM the client.
// The largest classfiles in the paper's corpus are well under 1 MiB;
// 16 MiB leaves room for embedded resources.
const maxClassBytes = 16 << 20

// ErrBodyTooLarge marks a body whose declared or actual length exceeds
// the bound ReadSized was given.
var ErrBodyTooLarge = errors.New("body exceeds size limit")

// sizedReadChunk is the most ReadSizedInto commits beyond the bytes it has
// actually received: a sender that declares a huge length and then
// stalls costs one chunk, not the declared size. Classes and single-class
// peer frames are far below it, so the common case is one exact
// allocation.
const sizedReadChunk = 1 << 20

// ReadSizedInto reads a body of declared length n (an HTTP
// Content-Length; negative = none declared) that may not exceed max
// bytes, into buf's storage as far as it reaches. A declared length over
// max is refused before anything is allocated; otherwise the result is
// one buffer of exactly n bytes, and a body that ends early is
// io.ErrUnexpectedEOF, never a truncated result. Only with no declared
// length does it fall back to a bounded io.ReadAll. With buf nil the
// result is a buffer of its own, for a reader that keeps the bytes for
// good (the class loader); a recycled buf (GetBuffer) suits one whose
// bytes die with a response: an attestation variant, which parses its
// payload, hashes the result and answers with the digest, and a peer
// fill, whose answer frame is written to the client that asked and then
// goes back to the pool.
func ReadSizedInto(buf []byte, body io.Reader, n int64, max int) ([]byte, error) {
	if n < 0 {
		b, err := io.ReadAll(io.LimitReader(body, int64(max)+1))
		if err == nil && len(b) > max {
			return nil, fmt.Errorf("%w (limit %d)", ErrBodyTooLarge, max)
		}
		return b, err
	}
	if n > int64(max) {
		return nil, fmt.Errorf("%w (%d declared, limit %d)", ErrBodyTooLarge, n, max)
	}
	size := int(n)
	buf = buf[:0]
	if cap(buf) < min(size, sizedReadChunk) {
		buf = make([]byte, 0, min(size, sizedReadChunk))
	}
	for {
		m, err := io.ReadFull(body, buf[len(buf):min(cap(buf), size)])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(buf) == size {
			return buf, nil
		}
		grown := make([]byte, len(buf), min(size, len(buf)+sizedReadChunk))
		copy(grown, buf)
		buf = grown
	}
}

// maxPooledBuffer is the largest buffer PutBuffer keeps: room for any
// class a fleet serves day to day, so that one 16 MiB payload does not stay
// pinned in the pool.
const maxPooledBuffer = 1 << 20

var bufferPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns a recycled buffer, possibly of zero capacity, for bytes
// nothing keeps: a variant's payload and its encoded output, which are
// parsed or hashed and dropped, and the artifact of a flight the store does
// not keep (a peer fill's answer frame, an uncached miss's output), which
// lives until the last waiter that received it has written its response
// (Result.Release). Store a grown buffer back through the pointer before
// PutBuffer.
func GetBuffer() *[]byte { return bufferPool.Get().(*[]byte) }

// bufferPoison is what PutBuffer writes over a buffer it takes back while
// slab.PoisonOnReset is on.
const bufferPoison = 0xDB

// PutBuffer recycles a buffer from GetBuffer. Nothing may still refer to
// its bytes: with slab.PoisonOnReset on, they are overwritten here, so a
// use after release reads poison instead of the next owner's bytes.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuffer {
		*b = nil
	} else if slab.Poisoning() {
		slab.Fill((*b)[:cap(*b)], bufferPoison)
	}
	bufferPool.Put(b)
}

// LoaderOptions parameterizes HTTPLoaderWith.
type LoaderOptions struct {
	// Policy is the hop's to the proxy: a zero Timeout bounds each class
	// fetch attempt at 30 s.
	Policy resilience.Policy
	// Dial opens the loader's connections (fault injection via
	// netsim.LinkFaults in tests). Nil = one HopTransport shared by every
	// loader, over a net.Dialer.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// ProbeInterval is how long HTTPLoaderMulti leaves a failed endpoint
	// ejected before re-probing it with live traffic (default 2s).
	ProbeInterval time.Duration
}

// HTTPLoader returns a jvm.ClassLoader that fetches classes over HTTP
// from a proxy at baseURL (e.g. "http://127.0.0.1:8642") with default
// resilience settings.
func HTTPLoader(baseURL, client, arch string) jvm.ClassLoader {
	return HTTPLoaderWith(baseURL, client, arch, LoaderOptions{})
}

// HTTPLoaderWith is HTTPLoader with explicit per-hop deadline, retry,
// and breaker settings. The class-load hop is availability-critical for
// the client (no class, no execution), so failures surface as load
// errors — the JVM turns them into NoClassDefFoundError.
//
// Each attempt is one exchange of the hop, which owns the attempt's
// deadline: it bounds the dial, the answer's head and its body alike, and
// no context is derived for it. No redirect is followed (the class
// protocol has none, so a 3xx is an answer like any other non-200), and
// every exchange sends the header pairs built here.
func HTTPLoaderWith(baseURL, client, arch string, opts LoaderOptions) jvm.ClassLoader {
	transport := defaultHop
	if opts.Dial != nil {
		transport = &HopTransport{Dial: opts.Dial}
	}
	return httpLoader(baseURL, client, arch, opts, transport)
}

// httpLoader is HTTPLoaderWith over transport.
func httpLoader(baseURL, client, arch string, opts LoaderOptions, transport *HopTransport) jvm.ClassLoader {
	target, terr := ParseHopTarget(baseURL)
	// The exchange owns each attempt's deadline, so the hop derives no
	// context for it.
	hop := resilience.NewHop(opts.Policy, 30*time.Second, 0)
	timeout := hop.Timeout
	hop.Timeout = 0
	// The proxy never compresses a class and the hop decodes no content
	// coding, so the loader asks for the identity encoding.
	header := []string{clientHeaderKey, client, archHeaderKey, arch, "Accept-Encoding", "identity"}
	return jvm.FuncLoader(func(name string) ([]byte, error) {
		if terr != nil {
			return nil, resilience.Permanent(terr)
		}
		var data []byte
		err := hop.Do(context.Background(), func(ctx context.Context) error {
			// The caller keeps the bytes (DefineClass), so the answer's body
			// is exactly the class: sized from its declared length, not
			// regrown and not pooled.
			a, err := transport.Exchange(ctx, target, &HopRequest{Method: http.MethodGet,
				Path: classPathPrefix + classPath(name) + ".class", Header: header, Timeout: timeout, Max: maxClassBytes})
			if errors.Is(err, ErrBodyTooLarge) {
				return resilience.Permanent(fmt.Errorf("proxy: %s: %w", name, err))
			}
			if err != nil {
				return fmt.Errorf("proxy: %s: %w", name, err) // a short body is worth a retry
			}
			if a.Status != http.StatusOK {
				err := fmt.Errorf("proxy: %s: %d %s: %s", name, a.Status, http.StatusText(a.Status), ErrorText(a.Body))
				if a.Status == http.StatusNotFound {
					return resilience.Permanent(fmt.Errorf("%v: %w", err, ErrNotFound))
				}
				if a.Status >= 400 && a.Status < 500 {
					return resilience.Permanent(err) // our request is wrong; retrying won't fix it
				}
				return err
			}
			data = a.Body
			return nil
		})
		if err != nil {
			return nil, err
		}
		return data, nil
	})
}

// ErrorText is an error answer's body as an error message quotes it: at
// most 256 bytes, trimmed.
func ErrorText(body []byte) string {
	return strings.TrimSpace(string(body[:min(len(body), 256)]))
}

// classPath is a class name as a URL path: JVMS §4.2.1 lets a name hold
// ?, # and %, which must reach the front end escaped. A name with nothing
// to escape is returned as it is.
func classPath(name string) string {
	u := url.URL{Path: name}
	return u.EscapedPath()
}

// MultiLoader spreads class fetches round-robin across several proxy
// endpoints (a replica fleet or a sharded cluster) and fails over to
// the remaining endpoints when one is down. On top of the per-endpoint
// circuit breakers it tracks endpoint health explicitly: an endpoint
// whose load failed is ejected from the rotation for ProbeInterval,
// then re-probed with one live request — success restores it, failure
// re-ejects it. So a dead endpoint costs each client at most one failed
// attempt per probe interval instead of one per rotation pass, and a
// recovered endpoint rejoins within one interval without any operator
// action. A not-found answer is definitive (every cluster node can
// resolve every class) and stops the failover sweep.
type MultiLoader struct {
	urls    []string
	loaders []jvm.ClassLoader
	probe   time.Duration
	now     func() time.Time
	next    atomic.Uint64

	mu        sync.Mutex
	downUntil []time.Time
}

// HTTPLoaderMulti builds a MultiLoader over the endpoints.
func HTTPLoaderMulti(baseURLs []string, client, arch string, opts LoaderOptions) (*MultiLoader, error) {
	if len(baseURLs) == 0 {
		return nil, fmt.Errorf("proxy: HTTPLoaderMulti needs at least one endpoint")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	m := &MultiLoader{
		urls:      append([]string(nil), baseURLs...),
		loaders:   make([]jvm.ClassLoader, len(baseURLs)),
		probe:     opts.ProbeInterval,
		now:       time.Now,
		downUntil: make([]time.Time, len(baseURLs)),
	}
	for i, u := range baseURLs {
		m.loaders[i] = HTTPLoaderWith(u, client, arch, opts)
	}
	return m, nil
}

// Down reports which endpoints are currently ejected from the rotation
// (by endpoint index, matching the constructor's baseURLs order).
func (m *MultiLoader) Down() []bool {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]bool, len(m.downUntil))
	for i, t := range m.downUntil {
		out[i] = now.Before(t)
	}
	return out
}

// ejected reports whether endpoint i is out of rotation at now.
func (m *MultiLoader) ejected(i int, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return now.Before(m.downUntil[i])
}

// noteResult updates endpoint i's health after one load attempt.
func (m *MultiLoader) noteResult(i int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.downUntil[i] = time.Time{}
	} else {
		m.downUntil[i] = m.now().Add(m.probe)
	}
}

// Load implements jvm.ClassLoader: try endpoints in rotation order,
// healthy ones first; fall back to the ejected ones only when every
// healthy endpoint has failed (an all-down fleet must still be retried
// — the tracker can be wrong, a request cannot be dropped on a guess).
func (m *MultiLoader) Load(name string) ([]byte, error) {
	start := int(m.next.Add(1)-1) % len(m.loaders)
	now := m.now()
	var firstErr error
	tried := make([]bool, len(m.loaders))
	attempt := func(i int) ([]byte, error, bool) {
		tried[i] = true
		data, err := m.loaders[i].Load(name)
		if err == nil {
			m.noteResult(i, true)
			return data, nil, true
		}
		if errors.Is(err, ErrNotFound) {
			m.noteResult(i, true) // the endpoint answered; the class is the problem
			return nil, err, true
		}
		m.noteResult(i, false)
		if firstErr == nil {
			firstErr = err
		}
		return nil, err, false
	}
	for i := 0; i < len(m.loaders); i++ {
		j := (start + i) % len(m.loaders)
		if m.ejected(j, now) {
			continue
		}
		if data, err, done := attempt(j); done {
			return data, err
		}
	}
	for i := 0; i < len(m.loaders); i++ {
		j := (start + i) % len(m.loaders)
		if tried[j] {
			continue
		}
		if data, err, done := attempt(j); done {
			return data, err
		}
	}
	return nil, firstErr
}
