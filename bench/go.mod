module contextrank/bench

go 1.22.0

require contextrank v0.0.0

replace contextrank => ../
