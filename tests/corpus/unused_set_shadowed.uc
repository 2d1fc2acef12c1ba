// expect: UC121@5
// The global `I` is never used: every `I` in `main` is the local one
// that shadows it. Only the definition nothing resolves to is flagged.
#define N 8
index_set I:i = {0..3};
int b[N];
main() {
    index_set I:i = {0..N-1};
    par (I) b[i] = i;
}
