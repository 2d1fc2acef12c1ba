// expect:
// `*seq` repeats the sweep until a whole pass enables no arm: a
// front-end bubble sort. `&&` short-circuits on the front end, so the
// last element never reads past the array.
#define N 7
index_set I:i = {0..N-1};
int a[N], swaps;
main() {
    par (I) a[i] = (N - i) * 5 % 11;
    *seq (I) st (i < N - 1 && a[i] > a[i+1]) {
        swap(a[i], a[i+1]);
        swaps = swaps + 1;
    }
}
