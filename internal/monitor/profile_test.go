package monitor_test

import (
	"strings"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/jvm"
	"dvm/internal/monitor"
)

func TestInstructionLevelProfile(t *testing.T) {
	b := classgen.NewClass("prof/P", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "spin", "(I)I")
	m.IConst(0).IStore(1)
	head := m.Here()
	exit := m.NewLabel()
	m.ILoad(1).ILoad(0).Branch(bytecode.IfIcmpge, exit)
	// A synchronized region per iteration: the synchronization trace the
	// paper collected for [Aldrich et al. 99].
	m.NewDup("java/lang/Object")
	m.InvokeSpecial("java/lang/Object", "<init>", "()V")
	m.AStore(2)
	m.ALoad(2).Inst(bytecode.Monitorenter)
	m.IInc(1, 1)
	m.ALoad(2).Inst(bytecode.Monitorexit)
	m.Goto(head)
	m.Mark(exit)
	m.ILoad(1).IReturn()
	data, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := jvm.New(jvm.MapLoader{"prof/P": data}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm.TraceOpcodes = true
	const n = 50
	v, thrown, err := vm.MainThread().InvokeByName("prof/P", "spin", "(I)I", []jvm.Value{jvm.IntV(n)})
	if err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	if v.Int() != n {
		t.Fatalf("spin = %d", v.Int())
	}

	samples := monitor.OpcodeProfile(vm)
	if len(samples) == 0 {
		t.Fatal("empty profile")
	}
	counts := map[string]int64{}
	for _, s := range samples {
		counts[s.Name] = s.Count
	}
	if counts["monitorenter"] != n || counts["monitorexit"] != n {
		t.Errorf("monitor counts = %d/%d, want %d", counts["monitorenter"], counts["monitorexit"], n)
	}
	if counts["iinc"] != n {
		t.Errorf("iinc = %d", counts["iinc"])
	}
	// Sorted descending.
	for i := 1; i < len(samples); i++ {
		if samples[i].Count > samples[i-1].Count {
			t.Fatal("profile not sorted")
		}
	}

	text := monitor.FormatProfile(samples, 5)
	if !strings.Contains(text, "monitorenter") && !strings.Contains(text, "iload") {
		t.Errorf("formatted profile:\n%s", text)
	}
}

func TestProfileDisabledByDefault(t *testing.T) {
	b := classgen.NewClass("prof/Off", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()V")
	m.Return()
	data, _ := b.BuildBytes()
	vm, err := jvm.New(jvm.MapLoader{"prof/Off": data}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, thrown, err := vm.MainThread().InvokeByName("prof/Off", "f", "()V", nil); err != nil || thrown != nil {
		t.Fatal(err)
	}
	if len(monitor.OpcodeProfile(vm)) != 0 {
		t.Error("opcode counts recorded without tracing enabled")
	}
}
