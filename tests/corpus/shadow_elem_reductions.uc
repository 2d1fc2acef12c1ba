// expect:
// Two sibling reductions over distinct sets whose elements share a
// spelling, on one geometry: both extend `I` to the same 4x4 space and
// both operands read `a[j]` — but one `j` ranges over 0..3 and the other
// over 4..7. They are different accesses, so the body must not reuse the
// predicate's gather: every `s[i]` is 400, not 4.
index_set I:i = {0..3}, J:j = {0..3}, K:j = {4..7}, A:e = {0..7};
int a[8], s[4];
main() {
    par (A) st (e < 4) a[e] = 1; others a[e] = 100;
    par (I) st ($+(J; a[j]) > 0) s[i] = $+(K; a[j]);
}
