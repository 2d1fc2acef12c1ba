// expect:
// Nested front-end `seq`: inner sweeps restart for every outer element,
// a set may be an arbitrary list, body locals live per element, and a
// `break` may leave a loop that is itself inside the `seq` body.
#define N 4
#define M 3
index_set I:i = {0..N-1}, J:j = {1..M}, K:k = {5, 2, 9};
int t[N][M], total, probes;
main() {
    seq (I) {
        int row = 0;
        seq (J) {
            t[i][j-1] = i * 10 + j;
            row = row + t[i][j-1];
        }
        seq (K) {
            int p;
            for (p = 0; p < 10; p = p + 1) {
                if (p * k > i) break;
            }
            probes = probes + p;
        }
        total = total + row;
    }
}
