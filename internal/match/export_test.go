package match

import "unsafe"

// OwnsToken reports whether s's bytes lie inside one of v's pages.
func OwnsToken(v *Vocab, s string) bool {
	if s == "" {
		return true
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	for _, page := range *v.pages.Load() {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(page)))
		if p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(page)) {
			return true
		}
	}
	return false
}
