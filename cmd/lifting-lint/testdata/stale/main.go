// Command stale is a module of one package that calls itself "lifting": every
// internal package the suite's configuration names is absent from it, which
// is what a deleted package looks like to a hand-kept list.
package main

func main() {}
