// expect:
// One index set bound on two axes of spaces of equal geometry names two
// elements, and the gather of an access that mentions one is not the
// gather of the same text mentioning the other. `s`: the predicate's
// `a[i]` reads the `par`'s `i` (axis 0), the body's the reduction's
// (axis 1) — every s[i] is 1+2+3+4. `t`: the predicate binds `j` second of
// three axes, the nested `par` third — t[i][k][j] is a[j] = j+1.
index_set I:i = {0..3}, J:j = {0..3}, K:k = {0..3};
int a[4], s[4], t[4][4][4];
main() {
    par (I) a[i] = i + 1;
    par (I) st ($+(J; a[i]) > 0) s[i] = $+(I; a[i]);
    par (I) st ($+(J, K; a[j]) > 0) { par (K, J) t[i][k][j] = a[j]; }
}
