package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func TestInputOrderDeterministicCycle(t *testing.T) {
	for _, n := range []int{1, 3, len(datasets), orbitSteps} {
		distinct := map[string]bool{}
		for seed := int64(0); seed < 50; seed++ {
			a, b := inputOrder(seed, n), inputOrder(seed, n)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("n=%d seed=%d: %v then %v", n, seed, a, b)
			}
			sorted := append([]int(nil), a...)
			sort.Ints(sorted)
			for i, v := range sorted {
				if v != i {
					t.Fatalf("n=%d seed=%d: %v is not a cycle over every input", n, seed, a)
				}
			}
			distinct[fmt.Sprint(a)] = true
		}
		if n > 2 && len(distinct) < 2 {
			t.Errorf("n=%d: every seed gives the same order", n)
		}
	}
}

func TestWorkloadsNamed(t *testing.T) {
	want := []string{"frame-engine-tcp", "composite-raw-inproc", "composite-trle-tcp", "composite-recover-inproc"}
	for _, name := range want {
		if _, ok := workloadByName(name); !ok {
			t.Errorf("workload %q missing", name)
		}
	}
	if len(workloads) != len(want) {
		t.Errorf("%d workloads, want %d", len(workloads), len(want))
	}
}
