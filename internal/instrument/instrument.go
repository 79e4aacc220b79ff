// Package instrument is the instrumentation switch for whole programs:
// it links in every package that declares metrics, so that EnableAll
// binds the complete set, and it carries the -metrics-addr and -report
// handling the command-line tools share.
package instrument

import (
	"fmt"
	"os"

	"perfpred/internal/obs"

	// The packages that declare metrics; obs.Bind reaches only the
	// handles of packages linked into the program.
	_ "perfpred/internal/fleet"
	_ "perfpred/internal/hybrid"
	_ "perfpred/internal/lqn"
	_ "perfpred/internal/rm"
	_ "perfpred/internal/serve"
	_ "perfpred/internal/sessioncache"
	_ "perfpred/internal/sim"
	_ "perfpred/internal/trade"
)

// EnableAll binds every declared metric to r, registering each on r,
// and starts recording. A nil registry unbinds them all, returning the
// hot paths to their zero-cost default.
func EnableAll(r *obs.Registry) { obs.Bind(r) }

// Flags applies a command-line tool's -metrics-addr and -report flags.
// With neither set it does nothing. Otherwise it enables every metric
// on a fresh registry and, given addr, serves the obs endpoint there,
// noting the address on stderr under the tool's name so stdout stays
// the tool's own. The returned function writes the -report snapshot;
// call it once the run is done.
func Flags(tool, addr, report string) (writeReport func() error, err error) {
	if addr == "" && report == "" {
		return func() error { return nil }, nil
	}
	r := obs.NewRegistry()
	EnableAll(r)
	if addr != "" {
		bound, err := obs.Serve(addr, r)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics\n", tool, bound)
	}
	return func() error {
		if report == "" {
			return nil
		}
		return obs.WriteReport(report, r)
	}, nil
}
