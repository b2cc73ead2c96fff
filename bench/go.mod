module ftsched/bench

go 1.24

require ftsched v0.0.0

replace ftsched => ../
