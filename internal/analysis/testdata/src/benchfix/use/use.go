package use

import "benchfix/lib"

func Use() int {
	return lib.Served(2) + lib.Adapter(nil) // want `Adapter is declared in benchapi.go for bench/ only`
}
