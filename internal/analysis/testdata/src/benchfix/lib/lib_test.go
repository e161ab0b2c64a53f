package lib

// Tests hold the adapters to the served path, so they may call them.
var _ = Adapter(map[string]bool{"x": true}) == Served(1)+1
