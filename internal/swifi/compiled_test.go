package swifi

import (
	"reflect"
	"testing"
	"unsafe"

	"superglue/internal/core"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
)

// TestSharedCompiledSpecsStayUnchanged: every trial system of a campaign
// registers the builtin services from one process-wide CompiledSpec per
// service, read concurrently by the workers. After a traced Table II
// round on two workers — plus one shaped campaign that installs every
// per-System override (supervision policy, fault actions, a second core,
// replicated storage) — each shared value must still equal a deep copy
// taken before the round; run under -race, the test also catches
// unsynchronized writes while the round runs.
func TestSharedCompiledSpecsStayUnchanged(t *testing.T) {
	builtins := map[string]func() (*core.CompiledSpec, error){
		"event": event.Compiled, "lock": lock.Compiled, "mm": mm.Compiled,
		"ramfs": ramfs.Compiled, "sched": sched.Compiled, "timer": timer.Compiled,
	}
	before := make(map[string]*core.CompiledSpec, len(builtins))
	for name, compiled := range builtins {
		c, err := compiled()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before[name] = deepCopy(reflect.ValueOf(c), map[visit]reflect.Value{}).Interface().(*core.CompiledSpec)
	}
	var campaigns []Config
	for _, svc := range Targets() {
		campaigns = append(campaigns, Config{Service: svc, Workload: Workloads()[svc], Iters: 5,
			Trials: 100, Seed: 1, Profile: Profiles()[svc], Trace: true, Workers: 2})
	}
	campaigns = append(campaigns, Config{Service: "ramfs", Workload: Workloads()["ramfs"], Iters: 3,
		Trials: 20, Seed: 1, Profile: Profiles()["ramfs"], Trace: true, Workers: 2,
		Shape: ShapeStorm, Policy: "one-for-one", FaultActions: map[string]string{"hang": "retry"},
		Cores: 2, Replicas: 3})
	for _, cfg := range campaigns {
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run(%s %s): %v", cfg.Service, cfg.Shape, err)
		}
	}
	for name, compiled := range builtins {
		c, _ := compiled()
		if !reflect.DeepEqual(c, before[name]) {
			t.Errorf("%s: shared compiled spec changed during the campaign", name)
		}
	}
}

// visit identifies a pointer already copied, so deepCopy keeps the
// sharing inside the copied value (a compiled spec's state machine and
// dispatch records point into its Spec).
type visit struct {
	typ reflect.Type
	ptr uintptr
}

// deepCopy returns a copy of v that shares no memory with v, unexported
// fields included.
func deepCopy(v reflect.Value, seen map[visit]reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		key := visit{v.Type(), v.Pointer()}
		if c, ok := seen[key]; ok {
			return c
		}
		c := reflect.New(v.Type().Elem())
		seen[key] = c
		c.Elem().Set(deepCopy(v.Elem(), seen))
		return c
	case reflect.Struct:
		if !v.CanAddr() {
			tmp := reflect.New(v.Type()).Elem()
			tmp.Set(v)
			v = tmp
		}
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			src := exposed(v.Field(i))
			exposed(c.Field(i)).Set(deepCopy(src, seen))
		}
		return c
	case reflect.Slice:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i), seen))
		}
		return c
	case reflect.Array:
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i), seen))
		}
		return c
	case reflect.Map:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		c := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			c.SetMapIndex(deepCopy(it.Key(), seen), deepCopy(it.Value(), seen))
		}
		return c
	case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		panic("deepCopy: unsupported kind " + v.Kind().String())
	default:
		return v
	}
}

// exposed returns an addressable struct field as a value that may be read
// and set even when the field is unexported.
func exposed(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}
