// Command serveproxy runs the scatter-gather serving proxy: a
// stateless L7 tier in front of one or more primary/replica groups
// that consistent-hash-routes writes to the owning primary (following
// 307s and failing over to a promoted replica on its own), and scatters
// reads across fresh followers with size-proportional budget splits
// and exact merges, moving a group's read on to its next target when one
// fails.
//
// One group, a primary with two followers:
//
//	serveproxy -addr :8090 -group http://primary:8080,http://replica1:8081,http://replica2:8082
//
// Two groups (writes hash across them with the engine's shard
// function; reads scatter over both and merge exactly):
//
//	serveproxy -group http://p0:8080,http://r0:8081 -group http://p1:8090,http://r1:8091
//
// Endpoints: POST /classify and GET /microclusters, /macroclusters
// (scattered reads), POST /insert and /cluster (routed writes), GET
// /stats (proxy counters + per-backend routing view), GET /healthz,
// GET /readyz. NDJSON streaming bodies are rejected — the proxy routes
// each point individually.
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"bayestree/internal/proxy"
	"bayestree/internal/serve"
)

// groupFlag collects repeated -group flags, each a comma-separated
// primary,replica,replica... URL list.
type groupFlag []proxy.Group

// String renders the collected groups for flag help.
func (g *groupFlag) String() string {
	parts := make([]string, len(*g))
	for i, gr := range *g {
		parts[i] = strings.Join(append([]string{gr.Primary}, gr.Replicas...), ",")
	}
	return strings.Join(parts, " ")
}

// Set parses one -group value.
func (g *groupFlag) Set(v string) error {
	var urls []string
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("backend URL %q must start with http:// or https://", u)
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return fmt.Errorf("empty group")
	}
	*g = append(*g, proxy.Group{Primary: urls[0], Replicas: urls[1:]})
	return nil
}

// options are the command's flags: the proxy's configuration plus the
// listener and its drain.
type options struct {
	proxy.Config
	addr  string
	drain time.Duration
}

// register declares every flag on fs and installs the usage text.
func register(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.addr, "addr", ":8090", "HTTP listen address")
	fs.IntVar(&o.DefaultBudget, "budget", 32, "default classify node budget when a request sends 0")
	fs.IntVar(&o.MaxBudget, "max-budget", 0, "per-request budget cap (0 = server default)")
	fs.DurationVar(&o.ProbeEvery, "probe-every", 250*time.Millisecond, "backend health/staleness probe period")
	fs.DurationVar(&o.MaxStaleness, "max-staleness", 5*time.Second, "follower freshness window; staler followers are skipped for reads")
	fs.DurationVar(&o.ReadTimeout, "read-timeout", 10*time.Second, "end-to-end bound on one proxied read")
	fs.DurationVar(&o.WriteTimeout, "write-timeout", 10*time.Second, "end-to-end bound on one proxied write including failover retries")
	fs.IntVar(&o.WriteRetries, "write-retries", 8, "write failover retries, each after a synchronous re-probe")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful drain timeout on SIGTERM/SIGINT")
	fs.Var((*groupFlag)(&o.Groups), "group", "one primary/replica group as primary,replica,replica... (repeatable)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `serveproxy — scatter-gather proxy over primary/replica groups

Usage:
  serveproxy -group http://primary:8080,http://replica:8081 [-group ...] [flags]

Examples:
  serveproxy -addr :8090 -group http://localhost:8080,http://localhost:8081,http://localhost:8082
  serveproxy -group http://p0:8080,http://r0:8081 -group http://p1:8090,http://r1:8091

Flags:
`)
		fs.PrintDefaults()
	}
	return o
}

// config checks the command line's remaining arguments and the groups,
// and returns the proxy configuration; a mistake is a usage error.
func (o *options) config(args []string) (proxy.Config, error) {
	if len(args) > 0 {
		return proxy.Config{}, serve.UsageErrorf("unexpected arguments %v", args)
	}
	if len(o.Groups) == 0 {
		return proxy.Config{}, serve.UsageErrorf("at least one -group is required")
	}
	return o.Config, nil
}

func main() {
	o := register(flag.CommandLine)
	flag.Parse()
	cfg, err := o.config(flag.Args())
	serve.Exit("serveproxy", err)
	p, err := proxy.New(cfg)
	serve.Exit("serveproxy", err)
	p.Start()
	defer p.Close()

	serve.Exit("serveproxy", serve.Run(serve.App{
		Name:         "serveproxy",
		Addr:         o.addr,
		Handler:      p.Handler(),
		DrainTimeout: o.drain,
		SetDraining:  p.SetDraining,
	}))
}
