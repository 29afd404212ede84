package gpu

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"nvbitgo/internal/sass"
)

// field returns struct field i of the addressable v, settable even when it
// is unexported.
func field(v reflect.Value, i int) reflect.Value {
	f := v.Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// fillNonzero sets every leaf of the addressable v to a nonzero value: every
// array element and struct field, a one-element slice, a new pointee, a
// no-op func. A kind it does not know fails the test, so whoever adds one to
// a recycled type extends its clear and this switch.
func fillNonzero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Array:
		for j := 0; j < v.Len(); j++ {
			fillNonzero(t, v.Index(j), path)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fillNonzero(t, s.Index(0), path)
		v.Set(s)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonzero(t, field(v, i), path+"."+v.Type().Field(i).Name)
		}
	default:
		t.Fatalf("%s has kind %v: extend its clear and this test", path, v.Kind())
	}
}

// TestPooledWarpIsFresh: a warp a closed device hands on is newWarp's warp,
// field for field, but for its save slabs, which stay allocated (their
// contents are unobservable: SAVEPUSH clears every frame it pushes). Every
// field is dirtied first, so a field clear forgets fails here.
func TestPooledWarpIsFresh(t *testing.T) {
	w := newWarp()
	v := reflect.ValueOf(w).Elem()
	fillNonzero(t, v, "warp")
	before := *w
	kept := reflect.ValueOf(&before).Elem()
	w.clear()
	fresh := reflect.ValueOf(newWarp()).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		got, want := field(v, i), field(fresh, i)
		switch name {
		case "saveMeta", "saveRegs":
			if k := field(kept, i); got.Len() != k.Len() || got.Pointer() != k.Pointer() {
				t.Errorf("warp.%s: the save slab was not kept", name)
			}
		default:
			if !reflect.DeepEqual(got.Interface(), want.Interface()) {
				t.Errorf("warp.%s differs from a new warp's after clear", name)
			}
		}
	}
}

// TestPooledCacheIsFresh: reset leaves a cache as newCache allocates it,
// LRU clock included, so a pooled cache's hits, misses and victims are a
// new one's.
func TestPooledCacheIsFresh(t *testing.T) {
	c := newCache(64, 4)
	c.reset()
	for i := uint64(0); i < 1000; i++ {
		c.access(i * 7)
	}
	c.reset()
	want := &cache{sets: c.sets, ways: c.ways, tags: make([]uint64, c.sets*c.ways), ticks: make([]uint64, c.sets*c.ways)}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("reset cache differs from a new one: tick %d", c.tick)
	}
}

// TestClosedDeviceRefusesLaunch: a closed device has handed its warps and
// caches on, so it fails every launch; its memory and Stats stay readable.
func TestClosedDeviceRefusesLaunch(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	addr, err := d.Malloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(addr, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	if _, err := d.Launch(LaunchSpec{Entry: 1, Grid: D1(1), Block: D1(32)}); !errors.Is(err, errClosed) {
		t.Fatalf("launch on a closed device: %v, want %v", err, errClosed)
	}
	got := make([]byte, 4)
	if err := d.Read(addr, got); err != nil || got[3] != 4 {
		t.Fatalf("read after Close: %v %v", got, err)
	}
	if d.Stats() != (Stats{}) {
		t.Fatalf("a refused launch counted: %+v", d.Stats())
	}
}
