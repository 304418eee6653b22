// Smoke tests for the examples: each builds and runs to completion,
// producing some output. These catch panics on startup and wiring breaks
// that package tests (which call the underlying libraries directly)
// cannot see. The `mccs` subcommands are smoke-tested in-process by
// cmd/mccs's own tests.
package mccs_test

import (
	"os/exec"
	"testing"
)

func TestEntrypointSmoke(t *testing.T) {
	cases := []struct {
		name string
		pkg  string
		args []string
	}{
		{"quickstart", "./examples/quickstart", nil},
		{"multitenant", "./examples/multitenant", nil},
		{"training", "./examples/training", nil},
		{"reconfig-example", "./examples/reconfig", nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", append([]string{"run", tc.pkg}, tc.args...)...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", tc.pkg, tc.args, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s %v produced no output", tc.pkg, tc.args)
			}
		})
	}
}
