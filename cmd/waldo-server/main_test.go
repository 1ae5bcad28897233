package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRefusesClusterMisuse: run refuses, before it opens the CSV, a
// -data bootstrap on a shard (it would hold readings the ring places
// elsewhere) or on a replica (it could never adopt its primary's
// journal), and -follow without -shard-id. The CSV named does not exist,
// so an error about opening it means the refusal came too late.
func TestRunRefusesClusterMisuse(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-data", missing, "-shard-id", "s0"}, "-data cannot seed a shard"},
		{[]string{"-data", missing, "-shard-id", "s0r", "-follow", "http://127.0.0.1:1"}, "-data cannot seed a replica"},
		{[]string{"-data", missing, "-follow", "http://127.0.0.1:1"}, "-follow requires -shard-id"},
		{[]string{"-data-dir", t.TempDir(), "-follow", "http://127.0.0.1:1"}, "-follow requires -shard-id"},
	} {
		err := run(append(tc.args, "-addr", "127.0.0.1:0"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want the refusal %q", tc.args, err, tc.want)
		}
	}
}
