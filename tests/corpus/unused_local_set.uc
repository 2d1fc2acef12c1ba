// expect: UC121@10
// The global `I` is used; the `I` declared in the inner block shadows
// it there and is itself never used.
#define N 4
index_set I:i = {0..N-1};
int a[N];
main() {
    par (I) a[i] = i;
    {
        index_set I:i = {0..7};
        a[0] = 1;
    }
}
