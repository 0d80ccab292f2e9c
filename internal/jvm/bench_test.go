package jvm

import (
	"bytes"
	"runtime"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
)

// buildSumClass returns a class with sum(n): tight interpreter loop.
func buildSumClass(b *testing.B) *VM {
	b.Helper()
	cb := classgen.NewClass("bench/Sum", "java/lang/Object")
	m := cb.Method(classfile.AccPublic|classfile.AccStatic, "sum", "(I)I")
	m.IConst(0).IStore(1)
	m.IConst(0).IStore(2)
	head := m.Here()
	exit := m.NewLabel()
	m.ILoad(2).ILoad(0).Branch(bytecode.IfIcmpge, exit)
	m.ILoad(1).ILoad(2).IAdd().IStore(1)
	m.IInc(2, 1)
	m.Goto(head)
	m.Mark(exit)
	m.ILoad(1).IReturn()
	data, err := cb.BuildBytes()
	if err != nil {
		b.Fatal(err)
	}
	vm, err := New(MapLoader{"bench/Sum": data}, &bytes.Buffer{})
	if err != nil {
		b.Fatal(err)
	}
	return vm
}

// BenchmarkInterpreterLoop measures raw dispatch rate on a counting loop.
func BenchmarkInterpreterLoop(b *testing.B) {
	vm := buildSumClass(b)
	t := vm.MainThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, thrown, err := t.InvokeByName("bench/Sum", "sum", "(I)I", []Value{IntV(1000)})
		if err != nil || thrown != nil {
			b.Fatalf("%v %v", err, DescribeThrowable(thrown))
		}
	}
	b.ReportMetric(float64(vm.Stats.InstructionsExecuted)/float64(b.N), "instructions/op")
}

// BenchmarkMethodInvocation measures call/return overhead.
func BenchmarkMethodInvocation(b *testing.B) {
	cb := classgen.NewClass("bench/Call", "java/lang/Object")
	leaf := cb.Method(classfile.AccPublic|classfile.AccStatic, "leaf", "(I)I")
	leaf.ILoad(0).IReturn()
	outer := cb.Method(classfile.AccPublic|classfile.AccStatic, "outer", "(I)I")
	outer.IConst(0).IStore(1)
	head := outer.Here()
	exit := outer.NewLabel()
	outer.ILoad(1).ILoad(0).Branch(bytecode.IfIcmpge, exit)
	outer.ILoad(1).InvokeStatic("bench/Call", "leaf", "(I)I")
	outer.Pop()
	outer.IInc(1, 1)
	outer.Goto(head)
	outer.Mark(exit)
	outer.IConst(0).IReturn()
	data, err := cb.BuildBytes()
	if err != nil {
		b.Fatal(err)
	}
	vm, err := New(MapLoader{"bench/Call": data}, nil)
	if err != nil {
		b.Fatal(err)
	}
	t := vm.MainThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, thrown, err := t.InvokeByName("bench/Call", "outer", "(I)I", []Value{IntV(100)}); err != nil || thrown != nil {
			b.Fatalf("%v %v", err, DescribeThrowable(thrown))
		}
	}
}

// BenchmarkGCChurn measures allocation + collection of short-lived
// objects.
func BenchmarkGCChurn(b *testing.B) {
	cb := classgen.NewClass("bench/Gc", "java/lang/Object")
	m := cb.Method(classfile.AccPublic|classfile.AccStatic, "churn", "(I)V")
	head := m.Here()
	exit := m.NewLabel()
	m.ILoad(0).Branch(bytecode.Ifle, exit)
	m.NewDup("java/lang/Object")
	m.InvokeSpecial("java/lang/Object", "<init>", "()V")
	m.Pop()
	m.IInc(0, -1)
	m.Goto(head)
	m.Mark(exit)
	m.Return()
	data, err := cb.BuildBytes()
	if err != nil {
		b.Fatal(err)
	}
	vm, err := New(MapLoader{"bench/Gc": data}, nil)
	if err != nil {
		b.Fatal(err)
	}
	vm.SetGCThreshold(4096)
	t := vm.MainThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, thrown, err := t.InvokeByName("bench/Gc", "churn", "(I)V", []Value{IntV(1000)}); err != nil || thrown != nil {
			b.Fatalf("%v %v", err, DescribeThrowable(thrown))
		}
	}
	b.ReportMetric(float64(vm.Stats.ObjectsCollected)/float64(b.N), "collected/op")
}

// BenchmarkLaunch runs the benchmark's launch app (Cassowary, seed 1)
// from jvm.New to the end of main, the unit of the bench's set-up and of
// its jvm.* ledger rows.
func BenchmarkLaunch(b *testing.B) {
	launchClasses(b)
	var instr int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, _, thrown, err := launch(b, nil)
		if err != nil || thrown != nil {
			b.Fatalf("launch: err=%v thrown=%s", err, DescribeThrowable(thrown))
		}
		instr += vm.Stats.InstructionsExecuted
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/launch")
}
