# Parikh-refutable instance: the letter `c` leads into a b-only tail, so
# no behavior with infinitely many `a`s ever contains a `c`: a letter-count
# (Parikh support) analysis refutes `[]<>a` alone, with the shortest system
# word containing `c` as its witness. `rlcheck check` reports the lazy
# search's shortest doomed prefix, of the same length. The needle window
# (a 14-deep history guess, as in needle24.ts) makes the exact core pay a
# 2^14 subset construction for the same answer.
# Try: rlcheck check examples/systems/filter_parikh.ts "[]<>a" --stats
system
alphabet: a b c
initial: s0
s0 a -> s0
s0 b -> s0
s0 a -> c1   # guess: this a opens the window
c1 a -> c2
c1 b -> c2
c2 a -> c3
c2 b -> c3
c3 a -> c4
c3 b -> c4
c4 a -> c5
c4 b -> c5
c5 a -> c6
c5 b -> c6
c6 a -> c7
c6 b -> c7
c7 a -> c8
c7 b -> c8
c8 a -> c9
c8 b -> c9
c9 a -> c10
c9 b -> c10
c10 a -> c11
c10 b -> c11
c11 a -> c12
c11 b -> c12
c12 a -> c13
c12 b -> c13
c13 a -> c14
c13 b -> c14
c14 a -> s0
c14 b -> s0
c14 a -> c1
c14 c -> t    # only the end of the window can fail over...
t b -> t      # ...and after that, no a is ever possible again
