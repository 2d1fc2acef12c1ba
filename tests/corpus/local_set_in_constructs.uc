// expect:
// Index sets declared inside construct bodies: `K` lives in a `par`
// body and feeds a reduction there; `L` lives in a front-end `seq` body
// and shapes a nested `par` and a reduction, once per element.
#define N 4
index_set I:i = {0..N-1};
int a[N], c[N][3], t;
main() {
    par (I) {
        index_set K:k = {1..3};
        a[i] = $+(K; i * k);
    }
    seq (I) {
        index_set L:l = {0..2};
        par (L) c[i][l] = i + l;
        t = t + $+(L; c[i][l]);
    }
}
