// Command dvmclient runs the DVM client runtime: it resolves classes
// through a service proxy (or a local directory), hosts the dynamic
// service components, and executes a program's main method.
//
// Usage:
//
//	dvmclient -proxy http://127.0.0.1:8642 -main jlex/Main [args...]
//	dvmclient -proxy http://10.0.0.1:8642,http://10.0.0.2:8642 -main jlex/Main [args...]
//	dvmclient -dir ./classes -main jlex/Main [-monolithic] [args...]
//
// -proxy accepts a comma-separated endpoint list: the client spreads
// class loads round-robin across the fleet and fails over to the next
// endpoint when one stops answering (a sharded cluster serves any key
// from any node, so every endpoint is equivalent).
//
// With -monolithic the client runs the baseline architecture: local
// verification at load time and no dependence on injected checks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dvm/internal/compiler"
	"dvm/internal/jvm"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/resilience"
	"dvm/internal/security"
	"dvm/internal/verifier"
)

func main() {
	proxyURL := flag.String("proxy", "", "proxy base URL, or a comma-separated list for round-robin with failover")
	dir := flag.String("dir", "", "load classes from a local directory instead of a proxy")
	mainClass := flag.String("main", "", "internal name of the class whose main to run (required)")
	clientID := flag.String("id", "dvmclient", "client identifier sent to the proxy")
	arch := flag.String("arch", compiler.ArchDVM, "native format advertised to the proxy")
	monolithic := flag.Bool("monolithic", false, "run as a monolithic client (local verification)")
	policyPath := flag.String("policy", "", "policy XML for a local enforcement manager / security manager")
	secServer := flag.String("secserver", "", "security server URL for a remote enforcement manager (e.g. http://host:8644)")
	console := flag.String("console", "", "administration console URL for remote auditing (e.g. http://host:8643)")
	stats := flag.Bool("stats", false, "print runtime statistics on exit")
	// One policy for the client's three hops: the proxy, the security
	// server and the console.
	var hop resilience.Policy
	flag.DurationVar(&hop.Timeout, "fetch-timeout", 30*time.Second, "per-attempt deadline for remote service calls")
	flag.IntVar(&hop.Retries, "retries", 2, "retries after a failed remote call attempt")
	flag.IntVar(&hop.BreakerThreshold, "breaker-threshold", 5, "consecutive failures before a per-service circuit breaker opens (-1 disables)")
	flag.Parse()
	if *mainClass == "" || (*proxyURL == "" && *dir == "") {
		fmt.Fprintln(os.Stderr, "usage: dvmclient (-proxy URL | -dir DIR) -main pkg/Class [args...]")
		os.Exit(2)
	}

	var loader jvm.ClassLoader
	if *proxyURL != "" {
		var endpoints []string
		for _, u := range strings.Split(*proxyURL, ",") {
			if u = strings.TrimSpace(u); u != "" {
				endpoints = append(endpoints, u)
			}
		}
		opts := proxy.LoaderOptions{Policy: hop}
		if len(endpoints) == 1 {
			loader = proxy.HTTPLoaderWith(endpoints[0], *clientID, *arch, opts)
		} else {
			var err error
			loader, err = proxy.HTTPLoaderMulti(endpoints, *clientID, *arch, opts)
			if err != nil {
				fatal(err)
			}
		}
	} else {
		root := *dir
		loader = jvm.FuncLoader(func(name string) ([]byte, error) {
			if strings.Contains(name, "..") {
				return nil, fmt.Errorf("bad class name %q", name)
			}
			return os.ReadFile(root + "/" + name + ".class")
		})
	}

	vm, err := jvm.New(loader, os.Stdout)
	if err != nil {
		fatal(err)
	}
	var verifyTime time.Duration
	var census verifier.Census
	if *monolithic {
		vm.LoadHooks = append(vm.LoadHooks, verifier.LocalHook(&census, &verifyTime))
	}
	if *policyPath != "" {
		data, err := os.ReadFile(*policyPath)
		if err != nil {
			fatal(err)
		}
		pol, err := security.ParsePolicy(data)
		if err != nil {
			fatal(err)
		}
		if *monolithic {
			vm.BuiltinChecks = security.NewStackIntrospection(pol)
		} else {
			srv := security.NewServer(pol)
			sid := pol.DomainFor(*mainClass)
			if sid == "" {
				fatal(fmt.Errorf("policy assigns no domain to %s", *mainClass))
			}
			vm.CheckAccess = security.NewManager(srv, sid)
		}
	}
	if *secServer != "" {
		// Remote enforcement manager: rules and invalidations come from
		// the central security server. Unreachable server = fail closed.
		sid := "apps"
		rm := security.NewRemoteManagerWith(*secServer, sid, security.RemoteOptions{
			Policy: hop,
			OnDegraded: func(sid, perm, target string, err error) {
				fmt.Fprintf(os.Stderr, "dvmclient: security degraded, denied %s %s (domain %s): %v\n",
					perm, target, sid, err)
			},
		})
		defer rm.Close()
		vm.CheckAccess = rm.Manager
	}
	if *console != "" {
		rs, err := monitor.AttachHTTPWith(vm, *console, monitor.ClientInfo{
			User: *clientID, Arch: *arch, JVMVersion: "1.2-dvm",
		}, 64, hop)
		if err != nil {
			fatal(err)
		}
		defer rs.Close()
	}

	start := time.Now()
	thrown, err := vm.RunMain(*mainClass, flag.Args())
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}
	if thrown != nil {
		fmt.Fprintf(os.Stderr, "dvmclient: uncaught exception: %s\n", jvm.DescribeThrowable(thrown))
		os.Exit(1)
	}
	if *stats {
		s := vm.Stats
		fmt.Fprintf(os.Stderr,
			"dvmclient: %.3fs, %d instructions, %d invocations, %d classes (%d bytes), gc runs %d, link checks %d, security checks %d, audit events %d\n",
			elapsed.Seconds(), s.InstructionsExecuted, s.MethodInvocations,
			s.ClassesLoaded, s.BytesLoaded, s.GCRuns, s.LinkChecks, s.SecurityChecks, s.AuditEvents)
		if *monolithic {
			fmt.Fprintf(os.Stderr, "dvmclient: local verification %.3fs (%d checks)\n",
				verifyTime.Seconds(), census.Static())
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dvmclient: %v\n", err)
	os.Exit(1)
}
