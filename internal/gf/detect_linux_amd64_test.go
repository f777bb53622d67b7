//go:build linux && amd64 && !purego

package gf

import (
	"os"
	"strings"
	"testing"
)

// TestDetect: the CPUID/XGETBV stub agrees with the kernel's own view of
// the CPU, the avx2 flag of /proc/cpuinfo.
func TestDetect(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	want, found := false, false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			found = true
			for _, flag := range strings.Fields(flags) {
				want = want || flag == "avx2"
			}
			break
		}
	}
	if !found {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	if got := detectAVX2(); got != want {
		t.Fatalf("detectAVX2() = %v, /proc/cpuinfo avx2 = %v", got, want)
	}
	if detected != want {
		t.Fatalf("useVector initialised to %v, want %v", detected, want)
	}
}
